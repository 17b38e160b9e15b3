"""Golden stdout digests: refactors must not move a single output byte.

Each case is one CLI invocation, named command.args.format; its stdout is
pinned by sha256. The states are |0> as a density-matrix file and |+> as a
ket file, so both state loaders are covered, and a mixed d = 4 state, which
``decompose`` and ``mh`` run over two custom 4×4 basis files. When a digest changes on
purpose, update it here and say which output changed and why.

Which digests hold on every platform:

- 45 do: the 30 scenario cases (eta, verify, prob, table), the 12 cases on
  |0> and the 3 of ``decompose`` on |+> over Z. Every scenario number is
  dyadic, so its sums and products are exact in any order, with or without
  fused multiply-add, and the kets' 1/√2 entries come from one IEEE square
  root and one division, both correctly rounded (``test_exact.py`` checks
  them all against a rational oracle). In the other 15, every number is
  exact or one rounded product: each sum has at most one nonzero term or
  adds a number to itself.
- 18 do not: the 9 cases on |+> over X and the 9 on the mixed d = 4 state.
  Their matrix products sum rounded terms, so the last bits depend on the
  order of the sum and on fused multiply-add in the BLAS. With OpenBLAS
  0.3.31 on x86-64, ``mh`` on |+> over X prints -1.6258839764163445e-17 where
  the exact value is 0, and a sequential einsum prints 0; on the d = 4 state
  numpy's matmul and that einsum differ by up to 2.8e-17. ``test_printed_numbers_are_exact_within_rounding`` checks
  every number that a decompose or mh case prints against exact arithmetic
  within one ulp of 1.0, so a digest failure that leaves it passing is
  rounding, not a regression.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from subens import named_basis
from subens.cli import main

from helpers import exact, exact_dagger, exact_matmul

GOLDEN = {
    "decompose.mixed4.F.csv": "5dc3a238c4136869e983f76b4e6b4b64187fe856d1a1443b6199723f41210922",
    "decompose.mixed4.F.json": "6f03ae446ef8d4029ef8fd151e313e7f4bff636c8c5394e9e9ffee5f43b7d9a3",
    "decompose.mixed4.F.pretty": "ea4d340f590e2869d39750ed2de06a1f884b9d290ddbd09f4d0c9ff4794316d0",
    "decompose.mixed4.U.csv": "ad0d062bbb07b3b62c90119e62289df5981c68cdc2eddb8a5346699c6a795e88",
    "decompose.mixed4.U.json": "c2417b19155aafdfd586879c0de3c7d0d56f9d614aa36d6f6f2ebe67cc720d80",
    "decompose.mixed4.U.pretty": "b698a3766dda38e0fa0338b90a376e176844667dba03918e33f675f9ac74ea31",
    "decompose.plus.X.csv": "446999c04539f88274452ff37298b514d68a88493d9be5380ab7c277252f06bf",
    "decompose.plus.X.json": "559df20a7d4b378c9e3b0b3952f7d3f29b33e32309c4f2a400c85be0939962c9",
    "decompose.plus.X.pretty": "575dde7b8719d29cb7dddbf10e16d58ad70ec5d453ff97f0f824255a7c334133",
    "decompose.plus.Z.csv": "bb85023ccaf21dbbce23af645184f967532a8b84ab529a78706936aaa0d82cc4",
    "decompose.plus.Z.json": "a4bf19eb08b89776fa9112716b49be4cf7ae88d7b5722a6b78c93bd9c47a5292",
    "decompose.plus.Z.pretty": "f4b3a3057730d002e8aebf3174bbf528c9b44710972895392363065a528cec24",
    "decompose.zero.X.csv": "0fe109706571eb2b3b04c7a3a614671dc55e8ebba1f0dc1f50783a04d92f9f7a",
    "decompose.zero.X.json": "8045c062adadc7c200b3548cfafcd5f6cb2bb5107eeee8947f1f70c562c60c37",
    "decompose.zero.X.pretty": "c9188be15b2723c47ea18c0d7f34014c7b82a44da872ad20e2cad9295fb518a1",
    "decompose.zero.Z.csv": "7658b2ad80597412d161ea3d022be57b26c44e0e26df0e113bdfcd2e47ab794e",
    "decompose.zero.Z.json": "6baf2532230e53e4ebfded8343fbab0b6f31734a0b5f125f6bd9c8b2bc0cf1d3",
    "decompose.zero.Z.pretty": "e0010334ab4352b24057ac1e1c6251c482998c22f111176cde03863c3a9897ff",
    "eta.csv": "8a22011f33adca288072dd20ab9b2639408afc149fb121ce087cdb2bdce1ef86",
    "eta.json": "9d7655c7a29fbe00e5640b03fc99b644451c7795d3511c3169bb6aa7bc555a87",
    "eta.pretty": "7d4f62e4ed36906942cfd64d7efbfbe149893a4a4f3e1564bb55c4eb5d86a6bc",
    "mh.mixed4.UF.csv": "e14ed8051150edb988b5eb390952041ea6d8f9164cc72d9c44e7bacc19ab01b3",
    "mh.mixed4.UF.json": "e60cac5ae779f9db470db26fd9b8c720d6bdd62853b285039873908c01ccef0f",
    "mh.mixed4.UF.pretty": "5a152d3628e737396529402a8ea6e2c35264dc53e94932e1c3211648e30e66f9",
    "mh.plus.XZ.csv": "f00f9beafbb82568019f608bce4ce627a3ac9301b98fc336f999bcf0f8dde238",
    "mh.plus.XZ.json": "3672371f0f519e7452f0c13724496905792bad5047aa7933748df404199aead5",
    "mh.plus.XZ.pretty": "5221a071090049d157a705263392614e42e87d9d8ff53d80de97be94bc2cc30a",
    "mh.plus.ZX.csv": "0dfbf63f4078f59f79ca56d965fc9cef881f36e12a61440e3816dd3ce0206e31",
    "mh.plus.ZX.json": "8cc8a57dfe2a2064f77688efbbc0f3de0f4a2a3bee13b8feb930b3e06f11265c",
    "mh.plus.ZX.pretty": "72be7bc23c5907b45c9de4426071f15209a738195c039a7a1216ae2f23f26238",
    "mh.zero.XZ.csv": "f0321fdeaebc7409fecb1b4efc4ace485c3cf71d9a734c458f6fa8a6b6699bb1",
    "mh.zero.XZ.json": "76809dd354c7af2d757aa7113de009c670e6149e26699d5e059015f81d622b44",
    "mh.zero.XZ.pretty": "82f157a2fb36fdc7b12357b8cf3770e01fe2f90ec12bb029dbc9042cea7bb896",
    "mh.zero.ZX.csv": "fbf1fd9237017dbc520faad7ebe1541587315bd9839583018e12aee04b6648b4",
    "mh.zero.ZX.json": "470ca3d5f0e9eab534f9739e011bf430ad8a0f0d2b89cfe2b7be5b8e81b8d4e3",
    "mh.zero.ZX.pretty": "ae2cc244e5c2aea5df17f23efb7e1c9df0de231d38c8966638ad056091b83c27",
    "prob.++.csv": "29c26b20a7c32badf5dc39d0713b82a9110c77de55e19424aba9a281b310f637",
    "prob.++.json": "ba11249afdda9ce946c6b5d91cadbb685c135255e152f793c05ebb4c736fa75b",
    "prob.++.pretty": "a74d3231221f8b72b2b46b265ce1c2968f56afb9f0c6b8098edccd4a0e7b69fa",
    "prob.+0.csv": "837022136e5aca1ca5afd1aa206398d8d40d62965457832fdcf21a956d1f1825",
    "prob.+0.json": "c243f07236e957bca684b93a63dc960bc538a6f6ae46d4c2e9b0443099edb632",
    "prob.+0.pretty": "640cbeb0c3eebb507831d2f0e402d5df03eef5753aa94e369051558c237fa3ee",
    "prob.0+.csv": "f04a70ef15afc87cb0d4a8ebae31f7a6ca93ee1e34651a9519bb2a62a888e850",
    "prob.0+.json": "34a973f86e1413d684d8a837707d4dfa6c6c03dc0d7fec31ac227b0cc9759ff3",
    "prob.0+.pretty": "3e8def44aa3bbcaafb28831a65064f70e11b4539a412b1279134252e0dcb8659",
    "prob.00.csv": "852ddb766701853574bae1228d46375dfe36b8712d759fc50edf468375702f8e",
    "prob.00.json": "d645ce71f745c0bbada30617cb8cbe6cd83c8797e2851db10ab33b2123e48b86",
    "prob.00.pretty": "67f8e6f8ca54f76aa1ac89d5f8640a5bf41f13a55fa6633b916c8b4bf095311b",
    "table.++.csv": "68ef4376c7db2e3c4cf96d567f53d46f8d853d6b3d06469314db30c588130018",
    "table.++.json": "a7aa632d3b51ac7ec7191433312715b80eaa74f19dbb87d8c4ba4220d76bed0d",
    "table.++.pretty": "7f963261406d0ccb986889c831930e8b0eb5fa66a4a232d52812f02ee548538f",
    "table.+0.csv": "2a91dbfdd50c87891c08fb3a74e5d1399101226434299be9945f508b0efa6148",
    "table.+0.json": "6325727b03758a8a1d5d6ea6cbb16549fde335b4f48108761a8187db3edde7b8",
    "table.+0.pretty": "c37b1750c643c219eff9504f170a00575e8aacd68c8ef776cf1579dbaa392108",
    "table.0+.csv": "0f17aafebe91ae5da35b71b9efa9a3485f138db0f2438f221fac77f1abc62632",
    "table.0+.json": "f9e73835b73da1fb2b69040a265e8560e8347dd47f228669681a31c10529a6be",
    "table.0+.pretty": "50168199cc3bc0c056c4eed5a4f05fed3e855d0f6f7af3ca33aee5f0a534aa93",
    "table.00.csv": "b0ba6f5f65b4131622cf4409f628c4d3f4174334b0f4bf1c0d9fbfc0be58c870",
    "table.00.json": "fc353a979d59050c964d936e21eac7ce2f4db66d016943c4adc4a0decf5303b0",
    "table.00.pretty": "fe3a560353c15e186674b0b9465b325650ce5c87d9e090d32255d480cfec6d8b",
    "verify.csv": "c93e5097e9336254579f22be225b10cc5b04e4dbf9e97472ea45dc0af8c6a434",
    "verify.json": "9235e104c93502eaa0dedb4029452a82b3980719831a0c38d0fc910d920d3980",
    "verify.pretty": "251429a9c30405e46b3fc9ac70db27a618055a936bdccc1f2fc1ea6b2a8a11fd",
}

STATES = {
    "zero": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "plus": [[np.sqrt(0.5), 0], [np.sqrt(0.5), 0]],
    "mixed4": [
        [[0.4, 0], [0.05, 0.02], [0, -0.03], [0.01, 0]],
        [[0.05, -0.02], [0.3, 0], [0.04, 0.01], [-0.02, 0.03]],
        [[0, 0.03], [0.04, -0.01], [0.2, 0], [0.015, -0.005]],
        [[0.01, 0], [-0.02, -0.03], [0.015, 0.005], [0.1, 0]],
    ],
}


def _custom_bases():
    """Basis files by name, each a list of kets: U is a product of two real
    and complex 2×2 rotations, F the 4-point Fourier basis."""
    a, b = np.sqrt(1 / 3), np.sqrt(2 / 3)
    u = np.kron(np.array([[a, b], [b, -a]]), np.array([[a, 1j * b], [1j * b, a]]))
    f = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2
    return {
        name: [[[z.real, z.imag] for z in ket] for ket in m.T.tolist()]
        for name, m in (("U", u), ("F", f))
    }


BASES = _custom_bases()


def _basis(name, state_dir):
    """A built-in basis name as it is, a custom one as the path of its file."""
    if name in ("Z", "X"):
        return name
    path = state_dir / f"{name}.json"
    path.write_text(json.dumps(BASES[name]))
    return str(path)


def _argv(name, state_dir):
    command, *args, fmt = name.split(".")
    if command in ("eta", "verify"):
        argv = [command]
    elif command in ("prob", "table"):
        argv = [command, "--input", args[0]]
    else:
        state = state_dir / f"{args[0]}.json"
        state.write_text(json.dumps(STATES[args[0]]))
        if command == "decompose":
            argv = [command, "--state", str(state), "--basis", _basis(args[1], state_dir)]
        else:
            a, b = (_basis(name, state_dir) for name in args[1])
            argv = [command, "--state", str(state), "--basis-a", a, "--basis-b", b]
    return argv + ["--format", fmt]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(capsys, tmp_path, name):
    code = main(_argv(name, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN[name], f"stdout of {name} changed; it is now:\n{out}"


# the 45 digests that hold on every platform (see the module docstring)
PORTABLE = sorted(
    name
    for name in GOLDEN
    if name.startswith(("eta.", "verify.", "prob.", "table.", "decompose.plus.Z."))
    or ".zero." in name
)

# prints each portable case's name and digest, with the state files in argv[1]
_DIGESTS = """if True:
    import contextlib, hashlib, io, pathlib, sys
    import test_golden

    for name in test_golden.PORTABLE:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert test_golden.main(test_golden._argv(name, pathlib.Path(sys.argv[1]))) == 0
        print(name, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("kernel", ["Sandybridge", "Prescott"])
def test_portable_digests_hold_under_a_blas_kernel_without_fma(tmp_path, kernel):
    # OpenBLAS picks its kernel at load, so each runs in a fresh interpreter; where a
    # kernel is missing it falls back to its default, under which the 45 hold too
    assert len(PORTABLE) == 45
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [tests, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _DIGESTS, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "".join(f"{name} {GOLDEN[name]}\n" for name in PORTABLE)


# The most a number that decompose or mh prints may differ from its exact value:
# one ulp of 1.0. Every such number is at most 1 in magnitude, and the largest
# difference measured is 0.22 of this bound.
ROUNDING = Fraction(2) ** -52
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _complex(data):
    """The complex array of a document of [re, im] pairs."""
    a = np.array(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _exact_kets(name):
    """Column f is outcome f's ket, exactly as the basis holds it."""
    return exact(named_basis(name).matrix if name in ("Z", "X") else _complex(BASES[name]).T)


def _cells(m, pretty):
    """The numbers of a matrix's cells in row order: re and im, but in pretty
    text im only where it is not 0."""
    out = []
    for re_, im in zip(m[0].ravel(), m[1].ravel()):
        out += [re_] if pretty and im == 0 else [re_, im]
    return out


def _label(name, f):
    """The numbers in outcome f's label: the X basis labels its outcomes + and -."""
    return [] if name == "X" else [f]


def _exact_numbers(name):
    """The numbers a decompose or mh case prints, in order, each as exact
    arithmetic gives it from the doubles that its input files hold."""
    command, state, bases, fmt = name.split(".")
    pretty = fmt == "pretty"
    given = _complex(STATES[state])
    if given.ndim == 1:  # a ket file holds the state |k><k|
        k = exact(given[:, None])
        rho = exact_matmul(k, exact_dagger(k))
    else:
        rho = exact(given)
    kets = {b: _exact_kets(b) for b in bases}
    d = len(rho[0])
    numbers = []
    if fmt == "json":  # a custom basis prints its kets, one per row; a named one its name
        numbers += [x for b in bases if b in BASES for x in _cells([p.T for p in kets[b]], False)]
    if command == "decompose":
        (b,) = bases
        numbers += [d] if pretty else []
        for f in range(d):
            v = tuple(part[:, [f]] for part in kets[b])
            rp = exact_matmul(rho, exact_matmul(v, exact_dagger(v)))
            term = ((rp[0] + rp[0].T) / 2, (rp[1] - rp[1].T) / 2)  # (rho P + P rho) / 2
            numbers += [f, *_label(b, f), rp[0].trace(), *_cells(term, pretty)]
    else:
        a, b = bases
        overlap = exact_matmul(exact_dagger(kets[a]), kets[b])
        inner = exact_matmul(exact_dagger(kets[a]), exact_matmul(rho, kets[b]))
        q = overlap[0] * inner[0] + overlap[1] * inner[1]  # Re(conj(<a|b>) <a|rho|b>)
        if pretty:
            numbers += [x for f in range(d) for x in _label(b, f)]
        for f in range(d):  # csv and pretty label each row
            numbers += ([] if fmt == "json" else _label(a, f)) + list(q[f])
    return numbers


def _slack(printed, pretty):
    """ROUNDING, and in pretty text half a unit in the sixth significant digit."""
    if not pretty or printed == 0:
        return ROUNDING
    return ROUNDING + Fraction(10) ** (math.floor(math.log10(abs(printed))) - 5) / 2


@pytest.mark.parametrize("name", [n for n in sorted(GOLDEN) if n.startswith(("decompose", "mh"))])
def test_printed_numbers_are_exact_within_rounding(capsys, tmp_path, name):
    # a digest that fails while this passes moved by rounding, not by a regression
    assert main(_argv(name, tmp_path)) == 0
    out = capsys.readouterr().out
    if name.endswith(".csv"):
        out = out.split("\n", 1)[1]  # the header names the columns
    printed = [Fraction(t) for t in NUMBER.findall(out)]
    expected = _exact_numbers(name)
    assert len(printed) == len(expected)
    pretty = name.endswith(".pretty")
    for x, y in zip(printed, expected):
        assert abs(x - y) <= _slack(x, pretty), (float(x), float(y))


def test_number_pattern_reads_each_exponent_spelling_as_one_number():
    # JSON and CSV print a positive exponent without a sign
    tokens = NUMBER.findall("1e16, -1.5e17, 1e-7, 5e-324, 0.00001")
    assert tokens == ["1e16", "-1.5e17", "1e-7", "5e-324", "0.00001"]
    assert [float(t) for t in tokens] == [1e16, -1.5e17, 1e-7, 5e-324, 1e-05]
