import collections
import contextlib
import hashlib
import json
import os
import struct
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cpfix import io
from cpfix.channel import KrausFamily
from cpfix.cli import run
from cpfix.matcore import opnorm

from conftest import (
    E11,
    E22,
    SIGMA_X,
    haar_unitary,
    random_bistochastic,
    random_hermitian,
    random_selfadjoint_family,
    random_unital_family,
)
from test_witnesses import MARKOV, MARKOV_A


@pytest.fixture
def lueders_file(tmp_path, lueders):
    path = tmp_path / "lueders.json"
    io.write_channel(path, lueders)
    return str(path)


@pytest.fixture
def mixture_file(tmp_path, mixture):
    path = tmp_path / "mixture.json"
    io.write_channel(path, mixture)
    return str(path)


def _matrix_file(tmp_path, name, m):
    path = tmp_path / name
    io.write_matrix(path, np.asarray(m, dtype=complex))
    return str(path)


# Channels and operators that a test's argv names; _with_files writes them
_NAMED = {
    "lueders": KrausFamily.from_operators([E11, E22]),
    "markov": MARKOV,
    # Phi = 3/2 id: I - sum mu x*x has the eigenvalue -1/2
    "wide": KrausFamily.from_operators([np.eye(2, dtype=complex)], [1.5]),
    # Phi = 2 id, whose image of top_a overflows
    "double": KrausFamily.from_operators([np.eye(2, dtype=complex)], [2.0]),
    "markov_a": MARKOV_A,
    "e11": E11,
    "large_a": np.diag([1.2e154, 0.0]),
    "anti_hermitian_a": np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]),
    # fixed points of the Lueders channel
    "negative_a": np.diag([1.0, -1e-3]),
    "top_a": np.diag([1.7e308, 1.0]),
}


def _with_files(tmp_path, argv):
    """``argv`` with each name of ``_NAMED`` replaced by the path of a file holding it."""
    out = []
    for arg in argv:
        if arg in _NAMED:
            value = _NAMED[arg]
            if isinstance(value, KrausFamily):
                io.write_channel(tmp_path / f"{arg}.json", value)
            else:
                _matrix_file(tmp_path, f"{arg}.json", value)
            arg = str(tmp_path / f"{arg}.json")
        out.append(arg)
    return out


class TestIo:
    def test_identity_on_c(self):
        kf = io.channel_from_obj(
            {"dim": 1, "terms": [{"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]}
        )
        assert kf.dim == 1
        np.testing.assert_allclose(kf.operators[0], [[1.0]])

    def test_sigma_x_entries(self):
        m = io.matrix_from_obj([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
        np.testing.assert_array_equal(m, SIGMA_X)

    def test_negative_weight_rejected(self):
        with pytest.raises(io.SchemaError, match="weight"):
            io.channel_from_obj(
                {"dim": 1, "terms": [{"weight": -1.0, "matrix": [[[1.0, 0.0]]]}]}
            )

    def test_schema_error_names_field(self):
        with pytest.raises(io.SchemaError, match=r"terms\[0\].matrix"):
            io.channel_from_obj(
                {"dim": 2, "terms": [{"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]}
            )

    def test_written_channel_is_json_of_its_lists(self, tmp_path):
        kf = random_unital_family(5, 3, np.random.default_rng(61))
        path = tmp_path / "c.json"
        io.write_channel(path, kf)
        lists = json.dumps(io.channel_to_obj(kf), sort_keys=True, indent=2, default=io.matrix_to_obj)
        assert path.read_text() == lists + "\n"

    def test_channel_roundtrip_byte_stable(self, tmp_path, mixture):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        io.write_channel(p1, mixture)
        io.write_channel(p2, io.read_channel(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matrix_roundtrip_byte_stable(self, tmp_path):
        rng = np.random.default_rng(60)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        io.write_matrix(p1, m)
        io.write_matrix(p2, io.read_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(io.read_matrix(p1), m)

    def test_bare_matrix_list_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]")
        np.testing.assert_array_equal(io.read_matrix(path), SIGMA_X)

    def test_entries_bit_exact(self):
        # ints, signed zeros and subnormals land bit for bit where complex(re, im) puts them
        obj = [[[-0.0, 0.0], [1, -0.0]], [[2.5, 5e-324], [-3, 1e300]]]
        want = np.array([[complex(re, im) for re, im in row] for row in obj])
        got = io.matrix_from_obj(obj)
        assert got.shape == (2, 2) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([[[True, 0]]], "matrix[0][0]: complex entries must be [re, im] number pairs"),
            ([[[1, 0], [0, 0]], [[1, 0]]], "matrix[1]: expected a row of length 2 (square matrix)"),
            ([[[1, 0, 0]]], "matrix[0][0]: complex entries must be [re, im] number pairs"),
            ([[[1, 0], ["0", 0]], [[1, 0], [0, 0]]], "matrix[0][1]: complex entries must be [re, im] number pairs"),
            ([[[1, 0], [0, 0]]], "matrix[0]: expected a row of length 1 (square matrix)"),
        ],
        ids=["bool", "ragged-row", "three-element-entry", "string", "non-square"],
    )
    def test_matrix_error_names_field(self, obj, message):
        with pytest.raises(io.SchemaError) as exc:
            io.matrix_from_obj(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[[1e400, 0]]]", "matrix[0][0]: expected a finite number, got inf"),
            ("[[[1, 0], [0, NaN]], [[0, 0], [1, 0]]]", "matrix[0][1]: expected a finite number, got nan"),
            ('{"matrix": [[[-Infinity, 0]]]}', "matrix[0][0]: expected a finite number, got -inf"),
        ],
        ids=["overflow", "nan", "minus-infinity"],
    )
    def test_non_finite_matrix_entry_names_field(self, tmp_path, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(io.SchemaError) as exc:
            io.read_matrix(path)
        assert str(exc.value) == message

    def test_algebra_parsing(self):
        alg = io.algebra_from_obj({"blocks": [2, 1], "weights": [1.0, 2.0]})
        assert alg.block_dims == (2, 1)
        with pytest.raises(io.SchemaError):
            io.algebra_from_obj({"blocks": [2, 0], "weights": [1.0, 2.0]})


def _number_bits(v):
    return struct.pack("<d", float(v))


def _same_document(got, want, path="$"):
    """got == want, floats compared bit for bit.

    orjson reads an integer literal outside [-2**63, 2**64) as the nearest
    float; json, which reads the rejected documents, as an int.
    """
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert type(got) is type(want) and got == want, path
    elif isinstance(want, int) and -(2**63) <= want < 2**64:
        assert type(got) is int and got == want, path
    elif isinstance(want, int):
        assert type(got) in (int, float) and _number_bits(got) == _number_bits(want), path
    elif isinstance(want, float):
        assert type(got) is float and _number_bits(got) == _number_bits(want), path
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _same_document(g, w, f"{path}[{k}]")
    else:
        assert type(got) is dict and list(got) == list(want), path
        for k in want:
            _same_document(got[k], want[k], f"{path}.{k}")


# Spellings whose value a float parser could round differently from json's
_EDGE_SPELLINGS = [
    "0.0", "-0.0", "0", "-0", "5e-324", "-5e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e-400", "0.1", "1E22",
    str(2**53 + 1), str(2**63), str(2**64), str(-(2**63) - 1),
]
_POSITIVE_SPELLINGS = ["5e-324", "2.2250738585072011e-308", "1.7976931348623157e308", "0.1", "1",
                       str(2**53 + 1), str(2**63), str(2**64)]


def _spellings(floats):
    """A float's shortest repr and its %.25g and %.3e spellings."""
    return floats.flatmap(lambda x: strategies.sampled_from([repr(x), "%.25g" % x, "%.3e" % x]))


def _run_quietly(argv):
    """cli.run with its stdout and stderr captured: (code, out, err)."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_in_subprocess(argv):
    """cli.run in a fresh interpreter, so that a crash of the parser fails one test."""
    src = str(Path(io.__file__).parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    script = "import sys; from cpfix.cli import run; sys.exit(run(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )


_FLAG_KEYS = ["isUnital", "isSubunitalDual", "isTracePreserving", "selfAdjointFamily", "rigidityHolds"]

_GOOD_MATRIX = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
# The seeds of the CLI fuzz: a d = 2 channel, and an operator and a diagonal
# algebra on which verify holds for it
_CHANNEL_BYTES = (
    b'{"dim": 2, "terms": [{"weight": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},'
    b' {"weight": 2, "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]}]}'
)
_OPERATOR_BYTES = b'{"matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}'
_ALGEBRA_BYTES = b'{"blocks": [1, 1], "weights": [1, 2.5]}'
# 1-4 byte insertions, deletions or replacements, at positions taken modulo the length
_EDITS = strategies.lists(
    strategies.tuples(
        strategies.sampled_from(["insert", "delete", "replace"]),
        strategies.integers(0, 10**6),
        strategies.one_of(strategies.sampled_from(b'[]{}",:-+.0123456789eE \\NaIfinty'),
                          strategies.integers(0, 255)),
    ),
    min_size=1,
    max_size=4,
)


def _mutated(text, edits):
    text = bytearray(text)
    for op, at, byte in edits:
        at %= len(text) + (op == "insert")
        if op == "insert":
            text.insert(at, byte)
        elif op == "delete":
            del text[at]
        else:
            text[at] = byte
    return bytes(text)


def _assert_exit_contract(code, out, err, allow_precondition=False):
    """Exit 0, 1 or 2; an exit 2 prints one error line, any other canonical JSON.

    With ``allow_precondition``, an exit 1 may instead print one
    ``precondition failure:`` line and no stdout.
    """
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif allow_precondition and code == 1 and out == "":
        assert err.startswith("precondition failure: ") and err.count("\n") == 1
    else:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestReader:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=strategies.data())
    def test_parity_with_json_on_drawn_documents(self, tmp_path_factory, data):
        numbers = strategies.one_of(
            strategies.sampled_from(_EDGE_SPELLINGS),
            _spellings(strategies.floats(allow_nan=False, allow_infinity=False)),
        )
        weights = strategies.one_of(
            strategies.sampled_from(_POSITIVE_SPELLINGS),
            _spellings(strategies.floats(min_value=1e-300, max_value=1e300)),
        )
        dim = data.draw(strategies.integers(1, 4))

        def matrix():
            entries = [
                "[%s, %s]" % (data.draw(numbers), data.draw(numbers)) for _ in range(dim * dim)
            ]
            return "[%s]" % ", ".join("[%s]" % ", ".join(entries[i * dim : (i + 1) * dim]) for i in range(dim))

        if data.draw(strategies.booleans()):
            terms = [
                '{"weight": %s, "matrix": %s}' % (data.draw(weights), matrix())
                for _ in range(data.draw(strategies.integers(1, 3)))
            ]
            text, read = '{"dim": %d, "terms": [%s]}' % (dim, ", ".join(terms)), io.read_channel
        else:
            text = data.draw(strategies.sampled_from(['{"matrix": %s}', "%s"])) % matrix()
            read = io.read_matrix
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        path.write_text(text)
        want = json.loads(text)
        _same_document(io.read_json(path), want)
        if "inf" in repr(want):
            # a %.3e spelling rounded past the largest float
            with pytest.raises(io.SchemaError, match="expected a finite number, got -?inf"):
                read(path)
            return
        # the arrays hold the very floats json read, as complex(re, im) puts them
        got = read(path)
        if read is io.read_matrix:
            matrices = [(got, want if isinstance(want, list) else want["matrix"])]
        else:
            matrices = [(x, t["matrix"]) for x, t in zip(got.operators, want["terms"])]
            assert got.weights.tolist() == [float(t["weight"]) for t in want["terms"]]
        for m, lists in matrices:
            exact = np.array([[complex(float(re), float(im)) for re, im in row] for row in lists])
            assert m.tobytes() == exact.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2, "terms": [{"weight": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}]}',
             "error: terms[0].matrix[1][1]: expected a finite number, got nan\n"),
            ('{"dim": 2, "terms": [{"weight": 1.0, "matrix": [[[1, 0], [0, Infinity]], [[0, 0], [1, 0]]]}]}',
             "error: terms[0].matrix[0][1]: expected a finite number, got inf\n"),
            ('{"dim": 2, "terms": [{"weight": -Infinity, "matrix": %s}]}' % _GOOD_MATRIX,
             "error: terms[0].weight: must be a strictly positive number\n"),
            ('{"dim": 2, "terms": [{"weight": 1e400, "matrix": %s}]}' % _GOOD_MATRIX,
             "error: terms[0].weight: expected a finite number, got inf\n"),
            ('{"dim": "\\udc80", "terms": [{"weight": 1.0, "matrix": %s}]}' % _GOOD_MATRIX,
             "error: dim: must be a positive integer\n"),
            ('\ufeff{"dim": 2, "terms": [{"weight": 1.0, "matrix": %s}]}' % _GOOD_MATRIX,
             "error: malformed JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"),
            ('{"dim": 2, "terms": [{"weight": 1.0, "matrix": %s},]}' % _GOOD_MATRIX,
             "error: malformed JSON at line 1, column 86: Expecting value\n"),
            ('{"dim": 2,\r\n "terms": [\r\n x]}', "error: malformed JSON at line 3, column 2: Expecting value\n"),
            ('{"dim": 2,\r "terms": [\r x]}', "error: malformed JSON at line 3, column 2: Expecting value\n"),
        ],
        ids=["nan", "infinity", "minus-infinity", "overflow", "lone-surrogate", "bom", "trailing-comma", "crlf", "cr"],
    )
    def test_rejected_document_explained_by_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text.encode())
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("command", ["check", "fix", "commutant", "structure", "verify"])
    def test_boolean_dim_is_no_integer(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text('{"dim": true, "terms": [{"weight": 1.0, "matrix": [[[1, 0]]]}]}')
        operand = [_matrix_file(tmp_path, "m.json", [[1]])] if command == "verify" else []
        assert run([command, str(path), *operand]) == 2
        assert capsys.readouterr() == ("", "error: dim: must be a positive integer\n")

    def test_boolean_block_size_is_no_integer(self, tmp_path, capsys):
        channel = tmp_path / "c.json"
        channel.write_text('{"dim": 1, "terms": [{"weight": 1.0, "matrix": [[[1, 0]]]}]}')
        algebra = tmp_path / "a.json"
        algebra.write_text('{"blocks": [true], "weights": [1.0]}')
        operator = _matrix_file(tmp_path, "m.json", [[1]])
        assert run(["verify", str(channel), operator, "--algebra", str(algebra)]) == 2
        assert capsys.readouterr() == ("", "error: blocks: expected a list of positive integers\n")

    def test_lone_surrogate_key_read_as_json_reads_it(self, tmp_path):
        path = tmp_path / "c.json"
        text = '{"dim": 2, "\\ud800": 1, "terms": [{"weight": 1.0, "matrix": %s}]}' % _GOOD_MATRIX
        path.write_text(text)
        assert io.read_json(path) == json.loads(text)
        assert io.read_channel(path).dim == 2

    @pytest.mark.parametrize("size, read_by_orjson", [(1 << 16, True), ((1 << 16) + 1, False)])
    def test_text_over_64_kib_read_by_json(self, tmp_path, size, read_by_orjson):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        # orjson reads 2**64 as a float, json as an int
        head = '{"n": 18446744073709551616, "matrix": %s}' % json.dumps(io.matrix_to_obj(m))
        text = head + " " * (size - len(head))
        path = tmp_path / "m.json"
        path.write_text(text)
        assert type(io.read_json(path)["n"]) is (float if read_by_orjson else int)
        assert io.read_matrix(path).tobytes() == m.tobytes()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # read by json as an int, the dimension used to fail the shape check
            ("check", '{"dim": 18446744073709551616, "terms": [{"weight": 1.0, "matrix": %s}]}' % _GOOD_MATRIX,
             "error: dim: must be a positive integer\n"),
            ("algebra", '{"blocks": [18446744073709551616], "weights": [1]}',
             "error: blocks: expected a list of positive integers\n"),
        ],
        ids=["dim", "block"],
    )
    def test_integer_of_2_64_is_read_as_float(self, tmp_path, lueders_file, capsys, command, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        if command == "algebra":
            argv = ["verify", lueders_file, _matrix_file(tmp_path, "a.json", np.eye(2)), "--algebra", str(path)]
        else:
            argv = [command, str(path)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", message)
        assert type(io.read_json(path)) is dict

    @pytest.mark.parametrize(
        "text, message",
        [
            # orjson 3.8 reads 2 000 levels and the schema check rejects them;
            # a release that stops at 1024 levels hands the text to json
            ("[" * 2000 + "]" * 2000, None),
            ("[" * 200_000 + "]" * 200_000, "error: JSON nested too deeply\n"),
            ('{"a":' * 100_000 + "1" + "}" * 100_000, "error: JSON nested too deeply\n"),
        ],
        ids=["arrays-2000", "arrays-200000", "objects-100000"],
    )
    def test_deep_nesting_exit_two_without_traceback(self, tmp_path, text, message):
        path = tmp_path / "deep.json"
        path.write_text(text)
        done = _run_in_subprocess(["check", str(path)])
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        if message is not None:
            assert done.stderr == message

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(edits=_EDITS)
    def test_mutated_channel_never_raises(self, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_bytes(_mutated(_CHANNEL_BYTES, edits))
        _assert_exit_contract(*_run_quietly(["check", str(path), "--json"]))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(target=strategies.sampled_from(["fix", "commutant", "operator", "algebra"]), edits=_EDITS)
    def test_mutated_report_inputs_never_raise(self, tmp_path_factory, target, edits):
        # fix and commutant print a kernel basis read from a mutated channel;
        # verify reads a mutated operator or algebra beside a valid channel
        base = tmp_path_factory.getbasetemp()
        files = {"channel": _CHANNEL_BYTES, "operator": _OPERATOR_BYTES, "algebra": _ALGEBRA_BYTES}
        mutated = "channel" if target in ("fix", "commutant") else target
        for name, text in files.items():
            (base / f"{name}.json").write_bytes(_mutated(text, edits) if name == mutated else text)
        channel, operator, algebra = (str(base / f"{name}.json") for name in files)
        if target in ("fix", "commutant"):
            argv = [target, channel]
        else:
            argv = ["verify", channel, operator, "--algebra", algebra]
        _assert_exit_contract(*_run_quietly([*argv, "--json"]))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        command=strategies.sampled_from(["structure", "corollary", "peel", "jensen"]),
        target=strategies.sampled_from(["channel", "operator"]),
        edits=_EDITS,
    )
    def test_mutated_inputs_of_the_other_commands_never_raise(self, tmp_path_factory, command, target, edits):
        # structure reads no operator, so its draws all mutate the channel
        base = tmp_path_factory.getbasetemp()
        files = {"channel": _CHANNEL_BYTES, "operator": _OPERATOR_BYTES}
        mutated = "channel" if command == "structure" else target
        for name, text in files.items():
            (base / f"{name}.json").write_bytes(_mutated(text, edits) if name == mutated else text)
        channel, operator = (str(base / f"{name}.json") for name in files)
        operands = {"structure": [], "corollary": [operator], "peel": [operator], "jensen": [operator, "--eps", "0.1"]}
        # corollary, peel and jensen refuse inputs that break their hypotheses
        # (a fixed point, Phi(a) >= a, x_t = x_t*, a contractive family) with
        # exit 1 and one "precondition failure:" line; structure has none
        outcome = _run_quietly([command, channel, *operands[command], "--json"])
        _assert_exit_contract(*outcome, allow_precondition=command != "structure")


# Floats at the edges of the bands where orjson lays out the shortest digits
# differently from json: 1e-9 <= |x| < 1e-4 and |x| >= 1e16
BAND_EDGES = [1e-5, 1.69e-05, 1.32e-07, 9.999999999999999e-05, 1e-4,
              float(np.nextafter(1e-9, 0)), 1e-9, float(np.nextafter(1e-9, 1)),
              1e15, 9999999999999998.0, 3.16e17]
# Values whose shortest repr, sign or json spelling a bulk writer could get wrong
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 0.1, 1e16, 1e22, np.nan, -np.nan, np.inf, -np.inf, 0.0, -2.5,
               *BAND_EDGES, -1.32e-07, -3.16e17]


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return io.matrix_to_obj(obj)
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_lists(v) for v in obj]
    return obj


def _old_dumps(doc):
    """canonical_dumps as it was before arrays: json's own writer on the lists."""
    return json.dumps(_as_lists(doc), sort_keys=True, indent=2) + "\n"


def _edge_matrix(rows, cols, rng):
    values = np.array(EDGE_VALUES)
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real = rng.choice(values, size=(rows, cols))
    m.imag = rng.choice(values, size=(rows, cols))
    return m


class TestCanonicalDumps:
    def _documents(self):
        rng = np.random.default_rng(5)
        m = _edge_matrix(3, 3, rng)
        one = np.array([[-0.0 + 5e-324j]])
        real = rng.choice(np.array(EDGE_VALUES), size=(2, 2))
        wide = _edge_matrix(2, 4, rng)
        # 15 x 4608 floats, the last matrix m0's adjoint
        g = rng.standard_normal((14, 48, 48)) + 1j * rng.standard_normal((14, 48, 48))
        many = [*g, g[0].conj().T]
        # one matrix of 66 248 floats
        big = rng.standard_normal((182, 182)) + 1j * rng.standard_normal((182, 182))
        return [
            {"basis": [m, m.conj().T, -m, wide, -wide.conj().T], "dimension": 5},
            {"basis": many, "big": [big, -big.T]},
            m,  # depth 0
            {"matrix": m},
            [one, real],
            {"basis": [m, one], "dimension": 2, "rankWarning": False},  # depth 2
            [{"z": real, "a": [wide]}],
            {"a": {"b": [m, {"c": one}]}, "n": None},  # depth 3
            [[[real]]],
            {"basis": [], "dimension": 0, "rankWarning": True},
        ]

    def test_arrays_byte_identical_to_lists(self):
        for doc in self._documents():
            want = _old_dumps(doc)
            assert io.canonical_dumps(doc) == want
            assert io.canonical_dumps(_as_lists(doc)) == want

    def test_every_entry_value(self):
        for value in EDGE_VALUES:
            m = np.array([[value, 1.0], [complex(0.5, value), value]])
            assert m.dtype == np.complex128
            doc = {"m": m}
            assert io.canonical_dumps(doc) == _old_dumps(doc)

    def test_non_finite_spelled_as_json(self):
        out = io.canonical_dumps(np.array([[complex(np.nan, np.inf), -np.inf, complex(-0.0, -np.nan)]]))
        assert out.split() == "[ [ [ NaN, Infinity ], [ -Infinity, 0.0 ], [ -0.0, NaN ] ] ]".split()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(values=strategies.lists(strategies.floats(), min_size=1, max_size=50))
    def test_float_texts_match_json_on_drawn_floats(self, values):
        # the whole float range, NaN and +-inf included
        assert io._float_texts(np.array(values, dtype=np.float64)) == [json.dumps(v) for v in values]

    def test_float_texts_match_json_around_powers_of_ten(self):
        # +-6 ulps around +-10**p, p = -323 ... 308: every digit-count and
        # exponent change of both spellings, the band edges among them
        values = [0.0, -0.0]
        for p in range(-323, 309):
            for x in (float(f"1e{p}"), -float(f"1e{p}")):
                below = above = x
                for _ in range(6):
                    below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                    values += [float(below), float(above)]
                values.append(x)
        assert len(values) == 2 + 632 * 2 * 13
        texts = io._float_texts(np.array(values))
        assert texts == [json.dumps(v) for v in values]
        # and in place in a matrix
        doc = {"m": np.array(values).view(np.complex128).reshape(-1, 11)}
        assert io.canonical_dumps(doc) == _old_dumps(doc)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=strategies.data())
    def test_parity_with_json_on_drawn_documents(self, data):
        magnitudes = strategies.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1 / 3, 2.5, 1e16, 1e22, np.nan, np.inf, *BAND_EDGES])
        signed = strategies.tuples(magnitudes, strategies.booleans()).map(lambda p: -p[0] if p[1] else p[0])
        matrices, items = [], []
        for _ in range(data.draw(strategies.integers(0, 4))):
            if matrices and data.draw(strategies.booleans()):
                # the adjoint, negation or copy of a matrix already drawn
                m = data.draw(strategies.sampled_from(matrices))
                m = data.draw(strategies.sampled_from([m.conj().T, -m, -m.conj().T, m]))
            else:
                rows, cols = data.draw(strategies.integers(0, 5)), data.draw(strategies.integers(0, 5))
                floats = data.draw(strategies.lists(signed, min_size=2 * rows * cols, max_size=2 * rows * cols))
                m = np.array(floats, dtype=np.float64).view(np.complex128).reshape(rows, cols)
            matrices.append(m)
            for _ in range(data.draw(strategies.integers(0, 2))):
                m = data.draw(strategies.sampled_from([[m], {"m": m}, {"a": [m], "z": None}]))
            items.append(m)
        doc = data.draw(strategies.sampled_from([items, {"basis": items, "dimension": len(items)}]))
        assert io.canonical_dumps(doc) == _old_dumps(doc)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=strategies.data())
    def test_joined_layout_matches_json_at_every_level(self, data):
        # the separators of the cached layout, joined with the float texts,
        # against json's own writer through the default hook: every shape up
        # to 6 x 6 at indent levels 0-4, entries from every band of _float_texts
        bands = [0.0, 5e-324, 1.69e-05, 1.32e-07, 1e300, np.nan, np.inf]
        for edge in (1e-9, 1e-4, 1e16):
            bands += [float(np.nextafter(edge, 0)), edge, float(np.nextafter(edge, np.inf))]
        signed = strategies.tuples(strategies.sampled_from(bands), strategies.booleans())
        rows, cols = data.draw(strategies.integers(1, 6)), data.draw(strategies.integers(1, 6))
        floats = data.draw(strategies.lists(signed, min_size=2 * rows * cols, max_size=2 * rows * cols))
        m = np.array([-v if neg else v for v, neg in floats]).view(np.complex128).reshape(rows, cols)
        doc = m
        for _ in range(data.draw(strategies.integers(0, 4))):
            doc = data.draw(strategies.sampled_from([[doc], {"m": doc}, [None, doc, 1], {"a": 1, "m": doc}]))
        want = json.dumps(doc, sort_keys=True, indent=2, default=io._matrix_list) + "\n"
        assert io.canonical_dumps(doc) == want
        # a string that spells the placeholder sends the document to the fallback
        spelled = {"m": doc, "note": io._PLACEHOLDER}
        want = json.dumps(spelled, sort_keys=True, indent=2, default=io._matrix_list) + "\n"
        assert io.canonical_dumps(spelled) == want

    def test_tensor_basis_spelled_one_matrix_at_a_time(self, monkeypatch, tmp_path, capsys):
        # V (u_t (x) 1_4) V* / sqrt(3) at d = 20: fix prints 16 Hermitian
        # 20 x 20 matrices, 12 800 floats.  Each takes one orjson call, and
        # repr sees only the floats that orjson lays out differently from json
        rng = np.random.default_rng(17)
        v = haar_unitary(20, rng)
        ops = [v @ np.kron(haar_unitary(5, rng), np.eye(4)) @ v.conj().T / np.sqrt(3) for _ in range(3)]
        path = tmp_path / "tensor.json"
        io.write_channel(path, KrausFamily.from_operators(ops))
        dumped, spelled = [], []
        dumps = io.orjson.dumps
        monkeypatch.setattr(io.orjson, "dumps", lambda values, **kw: dumped.append(len(values)) or dumps(values, **kw))
        monkeypatch.setattr(io, "repr", lambda x: spelled.append(x) or repr(x), raising=False)
        assert run(["fix", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 16
        magnitudes = np.abs(np.array(report["basis"])).ravel()
        assert magnitudes.size == 12800
        assert dumped == [800] * 16
        out_of_band = (magnitudes >= 1e-9) & (magnitudes < 1e-4) | (magnitudes >= 1e16)
        assert len(spelled) == out_of_band.sum() == 31
        assert all(1e-9 <= abs(x) < 1e-4 for x in spelled)

    def test_string_spelling_the_placeholder(self):
        # a string that collides with the splice marker does not move a matrix
        m = _edge_matrix(2, 2, np.random.default_rng(6))
        doc = {"note": io._PLACEHOLDER, "m": [m, io._PLACEHOLDER]}
        assert io.canonical_dumps(doc) == _old_dumps(doc)
        assert io.canonical_dumps(_as_lists(doc)) == _old_dumps(doc)

    @pytest.mark.parametrize(
        "obj",
        [object(), np.zeros(3), np.zeros((2, 2, 2)), np.array([["a"]])],
        ids=["object", "1-d", "3-d", "strings"],
    )
    def test_other_objects_still_rejected(self, obj):
        with pytest.raises(TypeError, match="not JSON serializable"):
            io.canonical_dumps({"x": obj})


class TestCli:
    def test_check_lueders(self, lueders_file, capsys):
        assert run(["check", lueders_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: True" in out

    def test_check_non_unital(self, tmp_path, capsys):
        kf = KrausFamily.from_operators([np.eye(2, dtype=complex) / np.sqrt(2)])
        path = tmp_path / "sub.json"
        io.write_channel(path, kf)
        assert run(["check", str(path)]) == 1

    def test_check_is_cp_below_rounding(self, tmp_path, capsys):
        # d = 8, n = 3: the dense Choi eigensolve gives about -1e-15, below a
        # --psd-tol of 1e-20; the Kraus form is CP by construction, so check
        # prints the normalization flags and the verdict alone
        path = tmp_path / "bistochastic.json"
        io.write_channel(path, random_bistochastic(8, 3, 0))
        assert run(["check", str(path), "--psd-tol", "1e-20"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == [*_FLAG_KEYS, "verdict"]

    def test_check_near_overflow_is_quiet(self, tmp_path, capsys):
        # ||x||^2 = 8.1e307 is finite, so are the sums of mu x*x and mu x x*
        path = tmp_path / "near_overflow.json"
        io.write_channel(path, KrausFamily.from_operators([9e153 * np.eye(3)]))
        assert run(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert not any(line.startswith("choi") for line in captured.out.splitlines())
        assert run(["check", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "choiMinEig" not in json.loads(captured.out)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_check_is_one_answer_for_one_map(self, tmp_path, capsys, json_flag):
        # the rotation u by 0.1 rad written as {(1, u)} and as four copies
        # {(1/4, u)}; a Choi min eigenvalue of 0.0 and -7.4e-16 once split
        # them at --psd-tol 3e-16
        c, s = np.cos(0.1), np.sin(0.1)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        outs = []
        for name, kf in [("rot1", KrausFamily(2, [(1.0, u)])), ("rot4", KrausFamily(2, [(0.25, u)] * 4))]:
            io.write_channel(tmp_path / f"{name}.json", kf)
            assert run(["check", str(tmp_path / f"{name}.json"), "--psd-tol", "3e-16", *json_flag]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] == outs[1]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        d=strategies.integers(1, 5),
        n=strategies.integers(1, 4),
        extra=strategies.sampled_from(["n", "d2", "d2+2"]),
        seed=strategies.integers(0, 2**32 - 1),
    )
    def test_check_is_independent_of_the_kraus_representation(self, tmp_path_factory, d, n, extra, seed):
        # x'_s = sum_t u_st sqrt(mu_t) x_t with u an n' x n isometry is the
        # same map with unit weights; Haar members are not self-adjoint, and
        # no mixture of them is, so selfAdjointFamily reads False on both
        kf = random_bistochastic(d, n, seed)
        # an isometry needs n' >= n
        rows = max(n, {"n": n, "d2": d * d, "d2+2": d * d + 2}[extra])
        u = haar_unitary(rows, np.random.default_rng(seed))[:, :n]
        rerep = KrausFamily.from_operators(np.einsum("st,tij->sij", u, kf.scaled_operators))
        outs = []
        for name, family in [("kraus", kf), ("rerep", rerep)]:
            path = tmp_path_factory.getbasetemp() / f"{name}.json"
            io.write_channel(path, family)
            outs.append(_run_quietly(["check", str(path), "--json"]))
        assert outs[0] == outs[1]
        code, out, err = outs[0]
        assert (code, err) == (0, "")
        assert json.loads(out) == {"flags": {**dict.fromkeys(_FLAG_KEYS, True), "selfAdjointFamily": False}, "verdict": True}

    def test_fix_dimension(self, lueders_file, capsys):
        assert run(["fix", lueders_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 2

    def test_commutant(self, mixture_file, capsys):
        assert run(["commutant", mixture_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 2

    @pytest.mark.parametrize(
        "command, lines, keys",
        [
            ("fix", ["fixed-space dimension: 1", "warning: family is not unital"], {"unital"}),
            ("commutant", ["commutant dimension: 2"], set()),
        ],
    )
    def test_kernel_report(self, tmp_path, command, lines, keys, capsys):
        # Phi(a) = e11 a e11 fixes C e11; e11 commutes with the diagonal matrices
        path = tmp_path / "e11.json"
        io.write_channel(path, KrausFamily.from_operators([np.diag([1.0, 0.0])]))
        assert run([command, str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        assert run([command, str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"dimension", "rankWarning", "basis"} | keys
        assert report["dimension"] == int(lines[0].split()[-1])
        assert report.get("unital", False) is False

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--powers", "0"],
            ["verify", "--powers", "0", "--json"],
            ["corollary", "--powers", "-1"],
            ["corollary", "--powers", "0", "--json"],
            ["explore", "--dim", "0"],
            ["explore", "--terms", "0"],
            ["explore", "--trials", "0"],
            ["explore", "--trials", "two"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_nonpositive_count_exit_two(self, tmp_path, lueders_file, args, capsys):
        command, options = args[0], args[1:]
        if command == "explore":
            argv = ["explore", "--mode", "unital-only", *options]
        else:
            argv = [command, lueders_file, _matrix_file(tmp_path, "a.json", np.diag([1.0, 3.0])), *options]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{options[0]}: expected a positive integer, got '{options[1]}'" in captured.err

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("explore", ["--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
            ("explore", ["--seed", "x", "--json"], "argument --seed: expected a non-negative integer, got 'x'"),
            ("jensen", ["--eps", "nan"], "argument --eps: expected a finite number, got 'nan'"),
            ("jensen", ["--eps", "inf", "--json"], "argument --eps: expected a finite number, got 'inf'"),
            ("verify", ["--tol", "inf", "--psd-tol", "1e-8"], "argument --tol: expected a finite positive number, got 'inf'"),
            ("verify", ["--tol", "1e400"], "argument --tol: expected a finite positive number, got '1e400'"),
            ("verify", ["--psd-tol", "nan"], "argument --psd-tol: expected a finite positive number, got 'nan'"),
            ("verify", ["--tol", "0"], "argument --tol: expected a finite positive number, got '0'"),
            ("verify", ["--psd-tol", "-1", "--json"], "argument --psd-tol: expected a finite positive number, got '-1'"),
            # no ">= 0" decision reads --psd-tol in these four, so they do not take it
            *[(command, ["--psd-tol", "1e-3"], "unrecognized arguments: --psd-tol 1e-3")
              for command in ("fix", "commutant", "structure", "explore")],
        ],
        ids=["seed", "seed-text", "eps-nan", "eps-inf", "tol-inf", "tol-overflow", "psd-tol-nan", "tol-zero",
             "psd-tol-negative", "psd-tol-fix", "psd-tol-commutant", "psd-tol-structure", "psd-tol-explore"],
    )
    def test_out_of_range_value_exit_two(self, tmp_path, mixture_file, capsys, command, options, message):
        if command == "explore":
            argv = ["explore", "--mode", "unital-only", "--trials", "1"]
        elif command == "jensen":
            argv = ["jensen", mixture_file, _matrix_file(tmp_path, "a.json", [[2, 1], [1, 2]])]
        elif command == "verify":
            # the mixture fails superFixed for diag(2, 1); infinite tolerances passed it
            argv = ["verify", mixture_file, _matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0]))]
        else:
            argv = [command, mixture_file]
        assert run([*argv, *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_verify_mixture(self, tmp_path, mixture_file, capsys):
        a = _matrix_file(tmp_path, "a.json", [[2, 1], [1, 2]])
        assert run(["verify", mixture_file, a, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True

    def test_verify_with_algebra_file(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", [[1, 0], [0, 3]])
        alg = tmp_path / "alg.json"
        alg.write_text('{"blocks": [1, 1], "weights": [1.0, 2.0]}')
        assert run(["verify", lueders_file, a, "--algebra", str(alg)]) == 0

    def test_corollary(self, tmp_path, lueders_file):
        a = _matrix_file(tmp_path, "a.json", [[1, 0], [0, 3]])
        assert run(["corollary", lueders_file, a]) == 0

    @pytest.mark.parametrize("command", ["verify", "corollary"])
    @pytest.mark.parametrize("scale", [1e20, 1e40, 1e100])
    def test_huge_fixed_point_without_overflow(self, tmp_path, lueders_file, command, scale):
        # a^8 overflowed from scale 1e39 and corollary's a^16 from 1e19, with
        # numpy warnings on stderr and exit 1; in a fresh interpreter, so
        # that a warning reaches stderr as it would from the console script
        a = _matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0]) * scale)

        def no_constant(name):
            raise AssertionError(f"{name} in the report")

        for fmt in ([], ["--json"]):
            proc = _run_in_subprocess([command, lueders_file, a, *fmt])
            assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout, parse_constant=no_constant)["verdict"] is True

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["verify", "lueders", "top_a"], 0, ""),
            (["peel", "lueders", "top_a"], 0, ""),
            (["corollary", "lueders", "top_a"], 1, "precondition failure: the square a^2 overflows double precision\n"),
            (["jensen", "lueders", "top_a", "--eps", "0"], 1,
             "precondition failure: the value f_eps(a) overflows double precision\n"),
            # --psd-tol 1 passes Phi = 3/2 id as contractive; f(a) is finite, f(Phi(a)) not
            (["jensen", "wide", "large_a", "--eps", "0", "--psd-tol", "1"], 1,
             "precondition failure: the value f_eps(Phi(a)) overflows double precision\n"),
            (["verify", "lueders", "anti_hermitian_a"], 2,
             "error: the deviation from self-adjointness (a - a*) overflows double precision\n"),
            (["verify", "double", "top_a"], 1, "precondition failure: the image Phi(a) overflows double precision\n"),
            (["corollary", "double", "top_a"], 1, "precondition failure: the image Phi(a) overflows double precision\n"),
        ],
        ids=["verify", "peel", "corollary-square", "jensen-f", "jensen-f-phi", "verify-anti-hermitian",
             "verify-image", "corollary-image"],
    )
    def test_finite_operator_near_overflow(self, tmp_path, argv, code, err):
        # numpy warnings and "NaN or Inf entries" came from symmetrizing as
        # (m + m*)/2, and from an image Phi(a) that overflowed; in a fresh
        # interpreter, so that a warning reaches stderr
        proc = _run_in_subprocess(_with_files(tmp_path, argv))
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_eigensolver_failure_exit_one(self, tmp_path, lueders_file, monkeypatch, capsys):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        a = _matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0]))
        assert run(["verify", lueders_file, a]) == 1
        captured = capsys.readouterr()
        assert captured.err == "precondition failure: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("command", ["verify", "corollary"])
    def test_operator_outside_algebra_exit_one(self, tmp_path, identity_channel, command, capsys):
        ch = tmp_path / "identity.json"
        io.write_channel(ch, identity_channel)
        a = _matrix_file(tmp_path, "a.json", [[2, 1], [1, 2]])
        alg = tmp_path / "alg.json"
        alg.write_text('{"blocks": [1, 1], "weights": [1.0, 1.0]}')
        assert run([command, str(ch), a, "--algebra", str(alg)]) == 1
        captured = capsys.readouterr()
        assert "hypothesis aInAlgebra: False" in captured.out
        assert "failure: hypothesis failed: aInAlgebra" in captured.out
        assert "precondition failure" not in captured.err

    def test_peel_precondition_exit_one(self, tmp_path, mixture_file, capsys):
        a = _matrix_file(tmp_path, "a.json", [[3, 0], [0, 1]])
        assert run(["peel", mixture_file, a]) == 1
        assert "precondition failure" in capsys.readouterr().err

    def test_peel_lueders(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", [[3, 0], [0, 1]])
        assert run(["peel", lueders_file, a, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["eigenvalue"] for s in report["steps"]] == [3.0, 1.0]

    def test_jensen(self, tmp_path, mixture_file, capsys):
        a = _matrix_file(tmp_path, "a.json", [[2, 1], [1, 2]])
        assert run(["jensen", mixture_file, a, "--eps", "0.1"]) == 0

    def test_explore_deterministic(self, capsys):
        argv = ["explore", "--mode", "unital-only", "--dim", "2", "--trials", "5", "--seed", "7", "--json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "argv, low, high",
        [
            # sum mu x x* of the Markov witness has top eigenvalue 3/2
            (["check", "markov"], ("1e-8", "isSubunitalDual: False"), ("1", "isSubunitalDual: True")),
            (["verify", "markov", "markov_a"], ("1e-8", "hypothesis subunitalDual: False"),
             ("1", "hypothesis subunitalDual: True")),
            (["corollary", "markov", "markov_a"], ("1e-8", "hypothesis subunitalDual: False"),
             ("1", "hypothesis subunitalDual: True")),
            # a = diag(1, -1e-3) fails aPositive at the default
            (["peel", "lueders", "negative_a"], ("1e-8", None), ("1e-2", "verdict: True")),
            # with f(t) = t^2, Phi = 3/2 id misses Jensen by 3/4 at a = e11
            (["jensen", "wide", "e11", "--eps", "0"], ("0.6", "verdict: False"), ("1", "verdict: True")),
        ],
        ids=["check", "verify", "corollary", "peel", "jensen"],
    )
    def test_psd_tol_flips_a_printed_answer(self, tmp_path, argv, low, high, capsys):
        argv = _with_files(tmp_path, argv)
        for tol, line in (low, high):
            run([*argv, "--psd-tol", tol])
            out = capsys.readouterr().out.splitlines()
            assert line in out if line else out == []

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["check", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1, "terms": [{"weight": -1.0, "matrix": [[[1.0, 0.0]]]}]}')
        assert run(["check", str(path)]) == 2

    def test_dimension_mismatch_exit_two(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", np.eye(3))
        assert run(["verify", lueders_file, a]) == 2

    def test_unknown_flag_exit_two(self, lueders_file, capsys):
        assert run(["check", lueders_file, "--frobnicate"]) == 2

    def test_seed_is_an_explore_option(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0]))
        for argv in (["check", lueders_file], ["verify", lueders_file, a]):
            assert run([*argv, "--seed", "3"]) == 2
            assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "fix", "verify", "corollary", "peel", "jensen"])
    def test_overflowing_family_sum_exit_one(self, tmp_path, capsys, command):
        # sqrt(1e300) * 1e10 squared overflows; the commutant needs no weights
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "terms": [
            {"weight": 1e300, "matrix": [[[1e10, 0], [0, 0]], [[0, 0], [2e10, 0]]]}]}))
        argv = [command, str(path)]
        if command not in ("check", "fix"):
            argv.append(_matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0])))
        if command == "jensen":
            argv += ["--eps", "0.1"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "precondition failure: the column sum (sum mu x*x) overflows double precision\n"
        )

    @pytest.mark.parametrize(
        "term, field",
        [
            ({"weight": 1.0, "matrix": [[[10**400, 0]]]}, "terms[0].matrix[0][0]"),
            ({"weight": 10**400, "matrix": [[[1.0, 0.0]]]}, "terms[0].weight"),
        ],
        ids=["matrix-entry", "weight"],
    )
    def test_oversized_integer_exit_two(self, tmp_path, capsys, term, field):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 1, "terms": [term]}))
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {field}: number too large for a float\n"

    @pytest.mark.parametrize(
        "text, field, value",
        [
            ('{"dim": 1, "terms": [{"weight": 1.0, "matrix": [[[1e400, 0]]]}]}', "terms[0].matrix[0][0]", "inf"),
            ('{"dim": 1, "terms": [{"weight": 1.0, "matrix": [[[1.0, NaN]]]}]}', "terms[0].matrix[0][0]", "nan"),
            ('{"dim": 1, "terms": [{"weight": 1e400, "matrix": [[[1.0, 0.0]]]}]}', "terms[0].weight", "inf"),
        ],
        ids=["matrix-entry-overflow", "matrix-entry-nan", "weight-overflow"],
    )
    @pytest.mark.parametrize("command", ["check", "fix", "commutant"])
    def test_non_finite_channel_number_exit_two(self, tmp_path, capsys, command, text, field, value):
        path = tmp_path / "inf.json"
        path.write_text(text)
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field}: expected a finite number, got {value}\n"

    def test_non_finite_operator_entry_exit_two(self, tmp_path, lueders_file, capsys):
        a = tmp_path / "a.json"
        a.write_text("[[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]")
        assert run(["verify", lueders_file, str(a)]) == 2
        assert capsys.readouterr().err == "error: matrix[1][1]: expected a finite number, got inf\n"

    def test_non_finite_algebra_weight_exit_two(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", np.eye(2))
        alg = tmp_path / "alg.json"
        alg.write_text('{"blocks": [1, 1], "weights": [1.0, 1e400]}')
        assert run(["verify", lueders_file, a, "--algebra", str(alg)]) == 2
        assert capsys.readouterr().err == "error: weights[1]: expected a finite number, got inf\n"

    def test_oversized_algebra_weight_exit_two(self, tmp_path, lueders_file, capsys):
        a = _matrix_file(tmp_path, "a.json", np.eye(2))
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps({"blocks": [1, 1], "weights": [1.0, 10**400]}))
        assert run(["verify", lueders_file, a, "--algebra", str(alg)]) == 2
        assert "weights[1]: number too large for a float" in capsys.readouterr().err

    def test_usage_error_leaves_next_run_intact(self, lueders_file, capsys):
        # the parser is built once per process and shared by every run
        assert run(["check"]) == 2
        assert run(["fix", lueders_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2

    def test_missing_file_exit_two(self, capsys):
        assert run(["check", "/nonexistent/channel.json"]) == 2

    def test_directory_exit_two(self, tmp_path, capsys):
        assert run(["check", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dim": 1, "terms": [], "note": "caf\u00e9"}'.encode("latin-1"))
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode")

    def test_json_leaves_are_plain_python(self, tmp_path, lueders_file, mixture_file, monkeypatch):
        # json cannot write numpy scalars (an np.bool_ flag raises); only the
        # kernel basis matrices stay arrays, written by canonical_dumps itself
        docs = []
        real_dumps = io.canonical_dumps

        def recording_dumps(obj):
            docs.append(obj)
            return real_dumps(obj)

        a = _matrix_file(tmp_path, "a.json", np.diag([2.0, 1.0]))
        e11 = tmp_path / "e11.json"
        io.write_channel(e11, KrausFamily.from_operators([np.diag([1.0, 0.0])]))
        monkeypatch.setattr(io, "canonical_dumps", recording_dumps)
        commands = [
            ["check", lueders_file],
            ["check", str(e11)],
            ["fix", lueders_file],
            ["fix", str(e11)],
            ["commutant", mixture_file],
            ["verify", lueders_file, a],
            ["verify", mixture_file, a],
            ["corollary", lueders_file, a],
            ["peel", lueders_file, a],
            ["jensen", lueders_file, a, "--eps", "0.1"],
            ["explore", "--mode", "unital-only", "--dim", "2", "--trials", "3"],
            ["explore", "--mode", "subunital-only", "--dim", "2", "--trials", "3"],
        ]
        plain = (bool, int, float, str, type(None))

        def walk(obj, path):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    assert type(k) is str, path
                    walk(v, f"{path}.{k}")
            elif isinstance(obj, list):
                for k, v in enumerate(obj):
                    walk(v, f"{path}[{k}]")
            elif isinstance(obj, np.ndarray):
                assert path.startswith("$.basis[") and obj.ndim == 2 and obj.dtype == complex, path
            else:
                assert type(obj) in plain, (path, type(obj))

        for argv in commands:
            assert run([*argv, "--json"]) in (0, 1)
            assert len(docs) == 1, argv
            walk(docs.pop(), "$")

    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_kernel_json_is_canonical(self, tmp_path, lueders_file, mixture_file, command, capsys):
        random_path = tmp_path / "random.json"
        io.write_channel(random_path, random_unital_family(4, 3, np.random.default_rng(8)))
        for path in (lueders_file, mixture_file, str(random_path)):
            assert run([command, path, "--json"]) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            assert report["dimension"] == len(report["basis"]) >= 1
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# The README's example files, as its Example section writes them
_README_FILES = {
    "lueders.json": """{"dim": 2, "terms": [
  {"weight": 1.0, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]},
  {"weight": 1.0, "matrix": [[[0,0],[0,0]],[[0,0],[1,0]]]}]}
""",
    "a.json": "[[[2,0],[0,0]],[[0,0],[1,0]]]\n",
}

# verify and corollary print the same report on a = diag(2, 1): a and a^2
# are both fixed and every residual is an exact zero
_README_THEOREM_TEXT = """\
verdict: True
hypothesis unital: True
hypothesis subunitalDual: True
hypothesis invariance: True
hypothesis aInAlgebra: True
hypothesis aPositive: True
hypothesis superFixed: True
trace gap: 0.000e+00
fixedness residual: 0.000e+00
max power residual: 0.000e+00
max projection residual: 0.000e+00
max commutator residual: 0.000e+00
"""

_README_THEOREM_JSON = """\
{
  "failures": [],
  "hypotheses": {
    "aInAlgebra": true,
    "aPositive": true,
    "invariance": true,
    "subunitalDual": true,
    "superFixed": true,
    "unital": true
  },
  "residuals": {
    "commutators": [
      0.0,
      0.0
    ],
    "fEps": [
      0.0,
      0.0
    ],
    "fixedness": 0.0,
    "offDiagonal": [
      0.0,
      0.0
    ],
    "powers": [
      0.0,
      0.0,
      0.0,
      0.0,
      0.0,
      0.0,
      0.0,
      0.0
    ],
    "projections": [
      0.0,
      0.0
    ],
    "traceGap": 0.0
  },
  "verdict": true
}
"""

_README_OUTPUTS = {
    ("verify",): (_README_THEOREM_TEXT, _README_THEOREM_JSON),
    ("corollary",): (_README_THEOREM_TEXT, _README_THEOREM_JSON),
    ("peel",): (
        """\
verdict: True
step 0: eigenvalue 2, commutator 0.000e+00, fixedness 0.000e+00
step 1: eigenvalue 1, commutator 0.000e+00, fixedness 0.000e+00
reconstruction residual: 0.000e+00
""",
        """\
{
  "failedStep": null,
  "failures": [],
  "reconstructionResidual": 0.0,
  "steps": [
    {
      "commutatorResidual": 0.0,
      "eigenvalue": 2.0,
      "fixednessResidual": 0.0
    },
    {
      "commutatorResidual": 0.0,
      "eigenvalue": 1.0,
      "fixednessResidual": 0.0
    }
  ],
  "verdict": true
}
""",
    ),
    ("jensen", "--eps", "0.1"): (
        """\
min eigenvalue of (Phi(f(a)) - f(Phi(a))): 0.000e+00
verdict: True
""",
        """\
{
  "eps": 0.1,
  "lhsNorm": 5.0,
  "minEig": 0.0,
  "rhsNorm": 5.0,
  "verdict": true
}
""",
    ),
}


class TestReadmeExample:
    """The README's example, stdout byte for byte.

    Every residual is an exact zero, so a norm read off a spectrum with
    Python's max, which keeps the -0.0 of -w[0], would print -0.000e+00.
    """

    @pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", list(_README_OUTPUTS), ids=lambda c: c[0])
    def test_stdout_pinned(self, tmp_path, command, json_flag):
        for name, text in _README_FILES.items():
            (tmp_path / name).write_text(text)
        name, *options = command
        argv = [name, str(tmp_path / "lueders.json"), str(tmp_path / "a.json"), *options]
        want = _README_OUTPUTS[command][json_flag]
        assert _run_quietly(argv + ["--json"] * json_flag) == (0, want, "")


def _block_family(rng, rotate):
    """x_t = V (u_t (+) u'_t (+) 1) V* / sqrt3, blocks of sizes 3, 2 and 1, and the fixed point a = V diag(2, 2, 2, 3, 3, 4) V*; V is Haar, or 1."""
    v = haar_unitary(6, rng) if rotate else np.eye(6)
    ops = []
    for _ in range(3):
        u = np.zeros((6, 6), dtype=complex)
        u[:3, :3], u[3:5, 3:5], u[5:, 5:] = haar_unitary(3, rng), haar_unitary(2, rng), 1.0
        ops.append(v @ u @ v.conj().T / np.sqrt(3))
    a = v @ np.diag([2.0, 2.0, 2.0, 3.0, 3.0, 4.0]) @ v.conj().T
    return KrausFamily.from_operators(ops), a


class TestOneSpectrumPerMatrix:
    """No matrix reaches an eigenvalue or singular-value routine twice in one command.

    Each array handed to ``np.linalg.eigvalsh``, ``eigh`` or ``svd`` during
    one ``cli.run`` is recorded by shape and bytes.  An exactly zero array
    is skipped: in the standard basis, a and a^2 of a block fixed point both
    commute exactly, and ``corollary`` measures two all-zero commutator
    stacks, which are equal values, not a repeated computation.
    """

    @staticmethod
    def _inputs(monkeypatch, routines=("eigvalsh", "eigh", "svd"), nonzero=True):
        """The (shape, sha256) of every array the ``routines`` receive, in call order; only the nonzero ones by default."""
        seen = []
        for name in routines:

            def recording(a, *args, _real=getattr(np.linalg, name), **kwargs):
                m = np.asarray(a)
                if m.any() or not nonzero:
                    seen.append((m.shape, hashlib.sha256(m.tobytes()).hexdigest()))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        return seen

    def test_peel_decomposes_no_row_sum(self, tmp_path, monkeypatch):
        # peel reads the unital and self-adjoint flags alone, so I - sum mu x x*,
        # whose least eigenvalue decides the sub-unital dual flag, reaches no
        # LAPACK routine: nine calls in all on this family
        projective = random_selfadjoint_family(6, 3, 12)
        io.write_channel(tmp_path / "projective.json", projective)
        a = _matrix_file(tmp_path, "a.json", sum(c * p for c, p in zip((3.0, 2.0, 1.5), projective.operators)))
        seen = self._inputs(monkeypatch, ("eigvalsh", "eigh", "svd", "qr", "eig", "eigvals"), nonzero=False)
        code, _, err = _run_quietly(["peel", str(tmp_path / "projective.json"), a])
        assert (code, err) == (0, "")
        gap = np.eye(6) - projective.row_sum
        assert len(seen) == 9 and ((6, 6), hashlib.sha256(gap.tobytes()).hexdigest()) not in seen

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify", "rotated", "rotated_a"], id="verify"),
            pytest.param(["verify", "rotated", "perturbed_a"], id="verify-not-super-fixed"),
            pytest.param(["verify", "block", "block_a"], id="verify-standard-basis"),
            pytest.param(["corollary", "rotated", "rotated_a"], id="corollary"),
            pytest.param(["corollary", "block", "block_a"], id="corollary-standard-basis"),
            pytest.param(["peel", "projective", "projective_a"], id="peel"),
            pytest.param(["jensen", "rotated", "hermitian_a", "--eps", "0.25"], id="jensen"),
            pytest.param(["jensen", "rotated", "hermitian_a", "--eps", "-0.25"], id="jensen-negative-eps"),
            pytest.param(["check", "rotated"], id="check"),
            pytest.param(["fix", "rotated"], id="fix"),
            pytest.param(["commutant", "rotated"], id="commutant"),
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_no_repeated_decomposition(self, tmp_path, monkeypatch, argv, json_flag):
        rng = np.random.default_rng(12)
        rotated, rotated_a = _block_family(rng, rotate=True)
        block, block_a = _block_family(rng, rotate=False)
        projective = random_selfadjoint_family(6, 3, 12)
        h = random_hermitian(6, rng)
        files = {
            "rotated": rotated,
            "rotated_a": rotated_a,
            # Phi is trace preserving, so Phi(a) - a is traceless and not >= 0
            "perturbed_a": rotated_a + 0.3 * h / opnorm(h),
            "block": block,
            "block_a": block_a,
            "projective": projective,
            "projective_a": sum(c * p for c, p in zip((3.0, 2.0, 1.5), projective.operators)),
            # ||a|| = 2 and |eps| ||a|| = 0.5, inside the margin
            "hermitian_a": 2.0 * h / opnorm(h),
        }
        for name, value in files.items():
            if isinstance(value, KrausFamily):
                io.write_channel(tmp_path / f"{name}.json", value)
            else:
                _matrix_file(tmp_path, f"{name}.json", value)
        paths = [str(tmp_path / f"{arg}.json") if arg in files else arg for arg in argv]
        seen = self._inputs(monkeypatch)
        code, _, err = _run_quietly(paths + json_flag)
        assert (code, err) == (1 if "perturbed_a" in argv else 0, "")
        repeated = [key for key, count in collections.Counter(seen).items() if count > 1]
        assert seen and repeated == []
