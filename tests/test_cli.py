import gc
import json
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest

import subens.cli as cli
import subens.scenario as scenario
import subens.subensemble as subensemble
from subens.cli import main

from helpers import inject_tables, matrix_to_json

ZERO_DENSITY = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

# an integer of 5000 digits: past the interpreter's digit limit json.load refuses
# it, and where there is no limit the entry walk finds it beyond a double
BIG_INT = b"1" + b"0" * 4999
if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
    BIG_INT_REASON = "{path}: number too large for a double"
else:
    BIG_INT_REASON = {
        "state": "{path}: matrix entry (0,0): number too large for a double",
        "basis": "{path}: basis ket 0: ket amplitude 0: number too large for a double",
    }


# a path that no shell can pass, though a caller of main in process can
NUL_PATH = "a\x00b"


@pytest.fixture
def zero_state(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_DENSITY))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_bad_input_label(self, capsys):
        code, _, _ = run(capsys, ["prob", "--input", "01"])
        assert code == 2

    @pytest.mark.parametrize("command", ["prob", "table"])
    @pytest.mark.parametrize(
        "label", ["", "0", "01", "x+", "0+0"], ids=["empty", "0", "01", "x+", "0+0"]
    )
    def test_input_label_outside_choices(self, capsys, command, label):
        code, out, _ = run(capsys, [command, "--input", label])
        assert code == 2
        assert out == ""

    def test_bad_format(self, capsys):
        code, _, _ = run(capsys, ["eta", "--format", "xml"])
        assert code == 2


class TestEta:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["eta", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["projectors"][0]["coeffs"] == {
            "II": 0.25,
            "XX": 0.25,
            "YY": 0.25,
            "ZZ": -0.25,
        }
        assert doc["excluded_input"] == {"1": "00", "2": "0+", "3": "+0", "4": "++"}
        assert len(doc["kets"]) == 4
        amp = doc["kets"][0][1]
        assert amp[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_csv_has_header_and_four_rows(self, capsys):
        code, out, _ = run(capsys, ["eta", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("outcome,II,IX,IY,IZ,")
        assert len(lines) == 5

    def test_pretty_mentions_exclusions(self, capsys):
        code, out, _ = run(capsys, ["eta"])
        assert code == 0
        assert "outcome 1: excludes input 00" in out


class TestProb:
    def test_json_values(self, capsys):
        code, out, _ = run(capsys, ["prob", "--input", "00", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["input"] == "00"
        assert doc["probabilities"][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["probabilities"][3] == pytest.approx(0.5, abs=1e-12)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, ["prob", "--input", "++", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome,probability"
        assert len(lines) == 5


class TestTable:
    def test_csv_first_row(self, capsys):
        code, out, _ = run(capsys, ["table", "--input", "00", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.25,0.25,0.25,0.25"
        assert lines[1] == "-0.25,0.75,-0.25,0.75"
        assert len(lines) == 4

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["table", "--input", "0+", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["input"] == "0+"
        assert doc["rows"] == ["(0+;0+)", "(0+;1+)", "(0-;0+)", "(0-;1+)"]
        assert doc["entries"][0] == [0.25, 0.25, 0.25, 0.25]

    def test_pretty_layout(self, capsys):
        code, out, _ = run(capsys, ["table", "--input", "00"])
        assert code == 0
        assert "input 00" in out
        assert "(0+;0-)" in out


_DETAIL = (
    "outcome 1 coefficients do not synthesize a rank-1 projector: "
    "not idempotent, max|P1^2 - P1| = 0.0101 exceeds tolerance 1e-12"
)
_CHECK = {"name": "measurement-construction", "passed": False, "detail": _DETAIL}
# what verify prints, in each format, on a build whose outcome 1 table has XX = 0.26
FAILED_REPORT = {
    "json": json.dumps({"passed": False, "checks": [_CHECK], "inputs": []}, indent=2) + "\n",
    "csv": "input,excluded_outcome,born_probability,negative_rows\n",
    "pretty": f"scenario verification: FAIL\n  [FAIL] measurement-construction: {_DETAIL}\n",
}


class TestVerify:
    def test_exit_zero_on_shipped_scenario(self, capsys):
        code, out, err = run(capsys, ["verify"])
        assert code == 0
        assert "scenario verification: PASS" in out
        assert err == ""

    def test_json_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--format", "json"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["verify", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "input,excluded_outcome,born_probability,negative_rows"
        assert lines[1] == "00,1,0.0,(0+;0-)|(0-;0+)"
        assert len(lines) == 5

    def test_corrupted_coefficient_fails(self, capsys, monkeypatch):
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "XX": 0.26}})
        code, out, err = run(capsys, ["verify"])
        assert code == 1
        assert "FAIL" in out
        assert "verification failed" in err

    def test_corrupted_coefficient_breaks_eta_command(self, capsys, monkeypatch):
        inject_tables(monkeypatch, {2: {**scenario.ETA_EXPANSIONS[2], "XZ": 0.24}})
        code, _, err = run(capsys, ["eta"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_failed_verify_prints_its_report_and_one_error_line(self, capsys, monkeypatch, fmt):
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "XX": 0.26}})
        code, out, err = run(capsys, ["verify", "--format", fmt])
        assert code == 1
        assert out == FAILED_REPORT[fmt]
        assert err == "error: verification failed: measurement-construction\n"

    @pytest.mark.parametrize(
        "argv",
        [["eta"], ["prob", "--input", "00"], ["table", "--input", "00"]],
        ids=lambda argv: argv[0],
    )
    def test_failed_construction_stops_each_command_with_its_reason(
        self, capsys, monkeypatch, argv
    ):
        # each command's entry point raises the check's reason: eta_basis, outcome_probability
        # and contribution_table serve only a measurement that passed its check
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "XX": 0.26}})
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: {_DETAIL}\n"


# every distinct scenario invocation: eta, prob, table and verify in three formats
SCENARIO_INVOCATIONS = [
    [command, *extra, "--format", form]
    for command, extras in (
        ("eta", [[]]),
        ("prob", [["--input", label] for label in cli.INPUT_CHOICES]),
        ("table", [["--input", label] for label in cli.INPUT_CHOICES]),
        ("verify", [[]]),
    )
    for extra in extras
    for form in ("json", "csv", "pretty")
]


class TestReprintedText:
    """A scenario command renders its text once per build, and a repeat reprints it."""

    @pytest.fixture
    def renders(self, monkeypatch):
        """The calls of each renderer since the last reset, with no text kept yet."""
        monkeypatch.setattr(cli, "_TEXTS", {})
        calls = {}
        for name in ("dumps", "csv_line", "render_table"):
            calls[name] = 0

            def counted(*args, _name=name, _fn=getattr(cli.fmt, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli.fmt, name, counted)
        return calls

    def test_second_pass_renders_nothing(self, capsys, renders):
        assert len(SCENARIO_INVOCATIONS) == 30
        first = [run(capsys, argv) for argv in SCENARIO_INVOCATIONS]
        assert [code for code, _, _ in first] == [0] * 30
        # one call per json or csv document; a grid per table, four in verify
        assert renders == {"dumps": 10, "csv_line": 10, "render_table": 4 + 4}
        renders.update(dict.fromkeys(renders, 0))
        assert [run(capsys, argv) for argv in SCENARIO_INVOCATIONS] == first
        assert renders == {"dumps": 0, "csv_line": 0, "render_table": 0}

    def test_each_build_renders_its_own_text(self, capsys, monkeypatch, renders):
        argv = ["eta", "--format", "json"]
        shipped = run(capsys, argv)
        inject_tables(monkeypatch, {})  # a second build of the same tables
        renders["dumps"] = 0
        assert run(capsys, argv) == shipped
        assert renders["dumps"] == 1

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_defective_build_prints_its_report_on_every_call(self, capsys, monkeypatch, fmt):
        argv = ["verify", "--format", fmt]
        shipped = run(capsys, argv)
        assert shipped[0] == 0
        inject_tables(monkeypatch, {1: {**scenario.ETA_EXPANSIONS[1], "XX": 0.26}})
        error = "error: verification failed: measurement-construction\n"
        for _ in range(3):
            assert run(capsys, argv) == (1, FAILED_REPORT[fmt], error)
            for other in (["eta"], ["prob", "--input", "00"], ["table", "--input", "00"]):
                assert run(capsys, other + ["--format", fmt]) == (1, "", f"error: {_DETAIL}\n")
        monkeypatch.undo()
        assert run(capsys, argv) == shipped


class TestDecompose:
    def test_named_z_basis(self, capsys, zero_state):
        code, out, _ = run(
            capsys, ["decompose", "--state", zero_state, "--basis", "Z", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "Z"
        weights = [t["weight"] for t in doc["terms"]]
        assert weights == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_named_x_basis(self, capsys, zero_state):
        code, out, _ = run(
            capsys, ["decompose", "--state", zero_state, "--basis", "X", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        weights = [t["weight"] for t in doc["terms"]]
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        op = doc["terms"][0]["operator"]
        assert op[0][1][0] == pytest.approx(0.25, abs=1e-12)

    def test_ket_state_file(self, capsys, tmp_path):
        path = tmp_path / "plus.json"
        s = np.sqrt(0.5)
        path.write_text(json.dumps([[s, 0], [s, 0]]))
        code, out, _ = run(
            capsys, ["decompose", "--state", str(path), "--basis", "Z", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("outcome,label,weight,")
        assert len(lines) == 3

    def test_basis_file(self, capsys, zero_state, tmp_path):
        s = np.sqrt(0.5)
        basis_path = tmp_path / "xbasis.json"
        basis_path.write_text(json.dumps([[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]))
        code, out, _ = run(
            capsys,
            ["decompose", "--state", zero_state, "--basis", str(basis_path), "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc["basis"], list)
        weights = [t["weight"] for t in doc["terms"]]
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)


class TestMh:
    def test_zero_state_z_x(self, capsys, zero_state):
        code, out, _ = run(
            capsys,
            ["mh", "--state", zero_state, "--basis-a", "Z", "--basis-b", "X", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["basisA"] == "Z"
        assert doc["basisB"] == "X"
        assert doc["q"][0][0] == pytest.approx(0.5, abs=1e-12)
        assert doc["q"][1] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_csv_headers(self, capsys, zero_state):
        code, out, _ = run(
            capsys,
            ["mh", "--state", zero_state, "--basis-a", "Z", "--basis-b", "X", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",+,-"
        assert lines[1].startswith("0,")
        assert lines[2].startswith("1,")


class TestMalformedInputs:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["decompose", "--state", str(tmp_path / "nope.json"), "--basis", "Z"]
        )
        assert code == 3
        assert "error" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3
        assert "not valid JSON" in err

    def test_non_square_matrix(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps([[[1, 0], [0, 0]]]))
        code, _, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3

    def test_not_a_density_matrix(self, capsys, tmp_path):
        path = tmp_path / "trace2.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2))))
        code, _, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3
        assert err == (
            f"error: {path}: density matrix trace is not 1: "
            "|tr rho - 1| = 1 exceeds tolerance 1e-12\n"
        )

    def test_bad_basis_is_reported_before_bad_state(self, capsys, tmp_path):
        # the state is checked by the kernel, which runs once both files are loaded
        state = tmp_path / "trace2.json"
        state.write_text(json.dumps(matrix_to_json(np.eye(2))))
        basis = tmp_path / "badbasis.json"
        basis.write_text(json.dumps([[[1, 0], [0, 0]], [[1, 0], [0, 0]]]))
        code, _, err = run(capsys, ["decompose", "--state", str(state), "--basis", str(basis)])
        assert code == 3
        assert err.startswith(f"error: {basis}: basis vectors are not orthonormal")

    def test_malformed_ket(self, capsys, tmp_path):
        path = tmp_path / "badket.json"
        path.write_text(json.dumps([[1, 0], [0]]))
        code, out, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3
        assert out == ""
        assert "ket amplitude 1: a complex number must be a [re, im] pair" in err

    def test_basis_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "fourdim.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(4) / 4)))
        code, _, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3
        assert "does not match" in err

    def test_dimension_mismatch_names_the_basis(self, capsys, zero_state, tmp_path):
        path = tmp_path / "fourdim.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(4))))
        code, out, err = run(
            capsys, ["mh", "--state", zero_state, "--basis-a", "Z", "--basis-b", str(path)]
        )
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: basis dimension 4 does not match state dimension 2\n"

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--basis", "Z"], ["mh", "--basis-a", "Z", "--basis-b", "X"]],
        ids=["decompose", "mh"],
    )
    def test_oversized_ket_is_checked_before_its_projector(self, capsys, tmp_path, argv):
        # the projector of this 1.4 MB ket would need 596 GiB
        path = tmp_path / "bigket.json"
        path.write_text("[" + ", ".join(["[0, 0]"] * 200_000) + "]")
        code, out, err = run(capsys, argv + ["--state", str(path)])
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err == "error: Z: basis dimension 2 does not match state dimension 200000\n"

    def test_bad_basis_file(self, capsys, zero_state, tmp_path):
        path = tmp_path / "badbasis.json"
        path.write_text(json.dumps([[[1, 0], [0, 0]], [[1, 0], [0, 0]]]))
        code, _, err = run(
            capsys, ["decompose", "--state", zero_state, "--basis", str(path)]
        )
        assert code == 3
        assert "orthonormal" in err

    @pytest.mark.parametrize(
        ("kets", "reason"),
        [
            (
                [[[1, 0], [0, 0]], [[0, 0], "x"]],
                "basis ket 1: ket amplitude 1: a complex number must be a [re, im] pair",
            ),
            ([1, 2], "basis ket 0: ket must be a non-empty array of amplitudes"),
        ],
        ids=["bad-amplitude", "number-for-a-ket"],
    )
    def test_basis_file_rejection_names_the_ket(self, capsys, zero_state, tmp_path, kets, reason):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(kets))
        code, out, err = run(capsys, ["decompose", "--state", zero_state, "--basis", str(path)])
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("which", ["state", "basis"])
    def test_non_finite_entries(self, capsys, zero_state, tmp_path, which):
        # Python's json reads the NaN and Infinity literals as floats
        path = tmp_path / "nonfinite.json"
        if which == "state":
            path.write_text("[[[NaN, 0], [0, 0]], [[0, 0], [Infinity, 0]]]")
            argv = ["decompose", "--state", str(path), "--basis", "Z"]
        else:
            path.write_text("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]")
            argv = ["decompose", "--state", zero_state, "--basis", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("which", ["state", "basis-a", "basis-b"])
    def test_non_finite_file_prints_nothing(
        self, capsys, zero_state, tmp_path, which, literal, fmt
    ):
        # orjson would print a NaN or an infinity that reached the renderer as null
        path = tmp_path / "nonfinite.json"
        if which == "state":
            path.write_text(f"[[[{literal}, 0], [0, 0]], [[0, 0], [0, 0]]]")
            files = [str(path), "Z", "X"]
        else:
            path.write_text(f"[[[1, 0], [0, 0]], [[0, 0], [{literal}, 0]]]")
            files = [zero_state] + (["X", str(path)] if which == "basis-b" else [str(path), "X"])
        for argv in (
            ["decompose", "--state", files[0], "--basis", files[1 + (which == "basis-b")]],
            ["mh", "--state", files[0], "--basis-a", files[1], "--basis-b", files[2]],
        ):
            code, out, err = run(capsys, argv + ["--format", fmt])
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and "non-finite" in err and "null" not in err

    def test_basis_whose_products_overflow_is_rejected(self, capsys, zero_state, tmp_path):
        # V^H V holds inf - inf = nan, which no comparison with the tolerance rejects
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[[1e200, 0], [1e200, 0]], [[1e200, 0], [0, 1e200]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, ["mh", "--state", zero_state, "--basis-a", "Z", "--basis-b", str(path)]
            )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: {path}: basis vectors are not orthonormal: "
            "max|V^H V - I| = nan exceeds tolerance 1e-12\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--basis", "Z"], ["mh", "--basis-a", "Z", "--basis-b", "X"]],
        ids=["decompose", "mh"],
    )
    def test_state_that_overflows_the_eigensolver_is_rejected(self, capsys, tmp_path, argv):
        # Hermitian with trace 1, but eigvalsh returns NaN, which no comparison rejects
        big = 1.7e308
        path = tmp_path / "bigstate.json"
        path.write_text(json.dumps([[[0.5, 0], [big, big]], [[big, -big], [0.5, 0]]]))
        code, out, err = run(capsys, argv + ["--state", str(path)])
        assert code == 3
        assert out == ""
        assert err == (
            f"error: {path}: density matrix overflows the eigensolver: lowest eigenvalue nan\n"
        )

    @pytest.mark.parametrize(
        "which, document, message",
        [
            (
                "state",
                [[[0.5, 0], [1.7e308, 1.7e308]], [[-1.7e308, -1.7e308], [0.5, 0]]],
                "density matrix is not Hermitian: max|rho - rho^H| = inf exceeds tolerance 1e-12",
            ),
            ("state", [[1e200, 0], [0, 0]], "density matrix has non-finite entries"),
            (
                "basis",
                [[[1e200, 0], [1e200, 0]], [[1e200, 0], [0, 1e200]]],
                "basis vectors are not orthonormal: max|V^H V - I| = nan exceeds tolerance 1e-12",
            ),
        ],
        ids=["matrix-state", "ket-state", "basis"],
    )
    def test_overflow_prints_only_the_error_line(
        self, zero_state, tmp_path, which, document, message
    ):
        # a child process, so that a numpy RuntimeWarning would reach its stderr
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        state, basis = (str(path), "Z") if which == "state" else (zero_state, str(path))
        proc = subprocess.run(
            [sys.executable, "-m", "subens", "decompose", "--state", state, "--basis", basis],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path}: {message}\n"

    def test_basis_error_gives_residual(self, capsys, zero_state, tmp_path):
        s = 0.707107
        path = tmp_path / "sixdigits.json"
        path.write_text(json.dumps([[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]))
        code, _, err = run(
            capsys, ["mh", "--state", zero_state, "--basis-a", "Z", "--basis-b", str(path)]
        )
        assert code == 3
        assert "not orthonormal: max|V^H V - I| = 6.19e-07 exceeds tolerance 1e-12" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]\xff",
            b"[[[1" + b"0" * 400 + b", 0], [0, 0]], [[0, 0], [0, 0]]]",
            b"[" * 100_000 + b"]" * 100_000,
            # 200 000 empty rows: a 200 000^2 matrix would need 596 GiB
            b"[" + b",".join([b"[]"] * 200_000) + b"]",
            b"[[" + BIG_INT + b", 0]]",
        ],
        ids=[
            "not-utf8",
            "int-beyond-double",
            "nested-100000-deep",
            "200000-empty-rows",
            "int-beyond-digit-limit",
        ],
    )
    def test_unreadable_state_exits_3_without_traceback(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["decompose", "--state", str(path), "--basis", "Z"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["state", "basis"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
            (NUL_PATH, "cannot read {path}: embedded null byte"),
            (
                b"[[[1, 0]]]\xff",
                "{path} is not UTF-8 text: "
                "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
            ),
            (
                b"{not json",
                "{path} is not valid JSON: "
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
            (b"[" * 100_000 + b"]" * 100_000, "{path} nests arrays too deeply to read"),
            (b"[" * 1_000_000 + b"]" * 1_000_000, "{path} nests arrays too deeply to read"),
            (
                b"[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]",
                {
                    "state": "{path}: matrix row 0 must be an array of 1 entries",
                    "basis": "{path}: basis ket 0: ket amplitude 0: "
                    "a complex number must be a [re, im] pair",
                },
            ),
            (
                # positions count the text after universal newlines: one char per CRLF
                b"[[[1, 0], [0, 0]],\r\n [[0, 0], [0, 0]]\r\n [0]]",
                "{path} is not valid JSON: Expecting ',' delimiter: line 3 column 2 (char 38)",
            ),
            (
                json.dumps(ZERO_DENSITY).encode() + b" " * 9000 + b"\xff",
                "{path} is not UTF-8 text: "
                "'utf-8' codec can't decode byte 0xff in position 9036: invalid start byte",
            ),
            (b"[[[" + BIG_INT + b", 0]]]", BIG_INT_REASON),
            (
                b'{"kets": []}',
                {
                    "state": "{path}: matrix must be a non-empty array of rows",
                    "basis": "{path}: basis file must be an array of kets",
                },
            ),
        ],
        ids=[
            "missing-path",
            "nul-byte-in-path",
            "not-utf8",
            "not-json",
            "nested-100000-deep",
            "nested-1000000-deep",
            "numbers-4-deep",
            "crlf-syntax-error-on-line-3",
            "not-utf8-past-8k",
            "digit-limit",
            "object",
        ],
    )
    def test_read_rejection_is_worded_exactly(
        self, capsys, zero_state, tmp_path, which, content, message
    ):
        path = tmp_path / "in.json"
        if isinstance(content, str):  # a path to pass, not the bytes of a file
            path = content
        elif content is not None:
            path.write_bytes(content)
        if isinstance(message, dict):
            message = message[which]
        state, basis = (str(path), "X") if which == "state" else (zero_state, str(path))
        code, out, err = run(capsys, ["mh", "--state", state, "--basis-a", "Z", "--basis-b", basis])
        assert code == 3
        assert out == ""
        assert err == "error: " + message.format(path=path) + "\n"


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "state, basis, code",
        [
            (ZERO_DENSITY, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], 0),
            ([[[1, 0], [0, 0]], [[0, 0], [0, True]]], None, 3),
            (ZERO_DENSITY, "{not json", 3),
            (None, None, 3),
        ],
        ids=["mh-on-files", "rejected-state", "basis-not-json", "missing-path"],
    )
    def test_main_leaves_the_collector_as_found(self, capsys, tmp_path, enabled, state, basis, code):
        # the loaders pause the cyclic collector while a file becomes its array
        state_path, basis_path = tmp_path / "state.json", tmp_path / "basis.json"
        if state is not None:
            state_path.write_text(json.dumps(state))
        if basis is not None:
            basis_path.write_text(basis if isinstance(basis, str) else json.dumps(basis))
        argv = ["mh", "--state", str(state_path), "--basis-a", "Z"]
        argv += ["--basis-b", str(basis_path) if basis is not None else "X"]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_is_off_while_a_document_is_alive(
        self, capsys, monkeypatch, tmp_path, enabled
    ):
        state_path, basis_path = tmp_path / "state.json", tmp_path / "basis.json"
        state_path.write_text(json.dumps(ZERO_DENSITY))
        basis_path.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
        seen = []

        def watch(module, name, label):
            original = getattr(module, name)

            def watched(*args, **kwargs):
                seen.append((label, gc.isenabled()))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, watched)

        # either parser may read a file: orjson a proven file of numbers, json the rest
        for module, name in ((orjson, "loads"), (json, "load")):
            watch(module, name, "parse")
        for name in ("_state_from_json", "basis_from_kets"):
            watch(cli, name, name)
        argv = ["mh", "--state", str(state_path), "--basis-a", str(basis_path), "--basis-b", "X"]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, argv)[0] == 0
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [
            ("parse", False),
            ("_state_from_json", False),
            ("parse", False),
            ("basis_from_kets", False),
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--basis", "X"], ["mh", "--basis-a", "Z", "--basis-b", "X"]],
        ids=["decompose", "mh"],
    )
    def test_state_is_validated_once(self, capsys, monkeypatch, zero_state, argv):
        calls = []
        original = subensemble.validate_density

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (cli, subensemble):
            if getattr(module, "validate_density", None) is original:
                monkeypatch.setattr(module, "validate_density", counted)
        code, _, _ = run(capsys, argv + ["--state", zero_state])
        assert code == 0
        assert len(calls) == 1


class TestNamedBases:
    def test_named_basis_is_built_once_per_process(self, capsys, monkeypatch, zero_state):
        argv = ["decompose", "--state", zero_state, "--basis", "X"]
        assert run(capsys, argv)[0] == 0
        built = []
        init = subensemble.MeasurementBasis.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(subensemble.MeasurementBasis, "__init__", counted)
        assert run(capsys, argv)[0] == 0
        assert built == []
        assert subensemble.named_basis("X") is subensemble.named_basis("X")
        assert subensemble.named_basis("Z") is subensemble.named_basis("Z")


class TestBrokenPipe:
    def test_closed_stdout_exits_141_without_traceback(self, tmp_path):
        # a d = 64 mh document is about 130 kB, more than a pipe holds
        state, basis = tmp_path / "state.json", tmp_path / "basis.json"
        state.write_text(json.dumps(matrix_to_json(np.eye(64) / 64)))
        basis.write_text(json.dumps(matrix_to_json(np.eye(64))))
        argv = ["mh", "--state", state, "--basis-a", basis, "--basis-b", basis, "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "subens", *map(str, argv)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(20)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "--format", "json"],
            ["eta", "--format", "pretty"],
            ["table", "--input", "00", "--format", "csv"],
            ["table", "--input", "00", "--format", "json"],
            ["verify", "--format", "json"],
            ["verify", "--format", "pretty"],
        ],
    )
    def test_repeated_runs_are_identical(self, capsys, argv):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
