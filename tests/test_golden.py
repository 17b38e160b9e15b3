"""Golden stdout digests: refactors must not move a single output byte.

Each case is one CLI invocation, named command.args.format; its stdout is
pinned by sha256. The states are |0> as a density-matrix file and |+> as a
ket file, so both state loaders are covered. When a digest changes on
purpose, update it here and say which output changed and why.
"""

import hashlib
import json

import numpy as np
import pytest

from subens.cli import main

GOLDEN = {
    "decompose.plus.X.csv": "3c9b9cd8fbb83195b669ea9e748bfd84b9a5240c7ebf3826e481e25d393013e7",
    "decompose.plus.X.json": "1947cadcc552c064df10cdd84a249d70483cc553d9667d331dd0f2129a2dc0a3",
    "decompose.plus.X.pretty": "575dde7b8719d29cb7dddbf10e16d58ad70ec5d453ff97f0f824255a7c334133",
    "decompose.plus.Z.csv": "d6f3bcdc650c25b7dba0642c0ed3c5930b5b1451ce94a0649c2cfd0b6118c1f7",
    "decompose.plus.Z.json": "8a21ca18a066905719fc85a07992a898d000a17ef7c4165736950b9099445e0d",
    "decompose.plus.Z.pretty": "f4b3a3057730d002e8aebf3174bbf528c9b44710972895392363065a528cec24",
    "decompose.zero.X.csv": "520ec8613b30590852b17de4c299243d7bba90b0a28141ab51d99e5b428fea54",
    "decompose.zero.X.json": "bf14ef22b8dd31e0efe6f97efc0405de214b11760a724b0f8fc322fe01c8d8c4",
    "decompose.zero.X.pretty": "c9188be15b2723c47ea18c0d7f34014c7b82a44da872ad20e2cad9295fb518a1",
    "decompose.zero.Z.csv": "c154851c8e181d97181f28ae365999e0601e32284ab9aa221861657b29c59c5f",
    "decompose.zero.Z.json": "2c9ffc229db4276a416012f85ff430b536a923341710b9ede16bbb644b0617a2",
    "decompose.zero.Z.pretty": "e0010334ab4352b24057ac1e1c6251c482998c22f111176cde03863c3a9897ff",
    "eta.csv": "30522f292c1313a62eb966a43ddb0febccdededb7e4386002eac002d031f6882",
    "eta.json": "602babed9df0f0ade67d3bd57bd6a3b7831c6e264b73c03e6a5d9ac5960129f7",
    "eta.pretty": "7d4f62e4ed36906942cfd64d7efbfbe149893a4a4f3e1564bb55c4eb5d86a6bc",
    "mh.plus.XZ.csv": "f00f9beafbb82568019f608bce4ce627a3ac9301b98fc336f999bcf0f8dde238",
    "mh.plus.XZ.json": "3672371f0f519e7452f0c13724496905792bad5047aa7933748df404199aead5",
    "mh.plus.XZ.pretty": "5221a071090049d157a705263392614e42e87d9d8ff53d80de97be94bc2cc30a",
    "mh.plus.ZX.csv": "0dfbf63f4078f59f79ca56d965fc9cef881f36e12a61440e3816dd3ce0206e31",
    "mh.plus.ZX.json": "8cc8a57dfe2a2064f77688efbbc0f3de0f4a2a3bee13b8feb930b3e06f11265c",
    "mh.plus.ZX.pretty": "72be7bc23c5907b45c9de4426071f15209a738195c039a7a1216ae2f23f26238",
    "mh.zero.XZ.csv": "7551ff26ebcf7201a67cba94afd67e23e881cba81b6992f8129956c80d55c4b4",
    "mh.zero.XZ.json": "d90b99d5b1bd2ac3b4139d07db4f6ccc2c0cc238054b8a8d713cc190010d5cf1",
    "mh.zero.XZ.pretty": "82f157a2fb36fdc7b12357b8cf3770e01fe2f90ec12bb029dbc9042cea7bb896",
    "mh.zero.ZX.csv": "77015670a29afe033de270093f0cafae03dff4ac75db4f62a73009551d48a626",
    "mh.zero.ZX.json": "126a389cc3a638e99791edd5090e4730f4836aa7d2aff7fd41a01ef0ba7f62dc",
    "mh.zero.ZX.pretty": "ae2cc244e5c2aea5df17f23efb7e1c9df0de231d38c8966638ad056091b83c27",
    "prob.++.csv": "094c98b264bea7d71c5912c4de28e20277cb1e0e87376f61c2e9e94bf5214e3c",
    "prob.++.json": "4e2fa3ba6bf7e4ddeb6594881ae954200df10f495ecd2326c73b561bda1f7eba",
    "prob.++.pretty": "a74d3231221f8b72b2b46b265ce1c2968f56afb9f0c6b8098edccd4a0e7b69fa",
    "prob.+0.csv": "0cee4c5bd4b68ea308a15e8004055a3b24825f27161de103ba870fc97137fbdf",
    "prob.+0.json": "531da19b117742988d729e05eafc4b7d3b6fb796c72839794ee44c4cfa03cec3",
    "prob.+0.pretty": "640cbeb0c3eebb507831d2f0e402d5df03eef5753aa94e369051558c237fa3ee",
    "prob.0+.csv": "9cd14bd4fb9733251e3b1c1a86f87f9dc13bb2fb14dfe7b94e08d4e0130bd42b",
    "prob.0+.json": "4c38416279f21f7ddd84c7376e698994579ac105020834b1e632c59054aca640",
    "prob.0+.pretty": "3e8def44aa3bbcaafb28831a65064f70e11b4539a412b1279134252e0dcb8659",
    "prob.00.csv": "b1d45d82e2dc2814685b83f55b3a87ce2b3b4597a6a10e511bc4578f0993e353",
    "prob.00.json": "9c3117f73f6d3c155013a9768fe9b120e301bf02810bcd6e7df16cd0f4784ee7",
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
    "verify.csv": "8de816659b4603895a22a3520fc39c81e71d7cc05734f866b61935be4cdfc529",
    "verify.json": "8475b75a91c49642d0cc910383b4ad904c2ee9754ec84efacb219ac0c9f12d63",
    "verify.pretty": "251429a9c30405e46b3fc9ac70db27a618055a936bdccc1f2fc1ea6b2a8a11fd",
}

STATES = {
    "zero": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    "plus": [[np.sqrt(0.5), 0], [np.sqrt(0.5), 0]],
}


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
            argv = [command, "--state", str(state), "--basis", args[1]]
        else:
            argv = [command, "--state", str(state), "--basis-a", args[1][0], "--basis-b", args[1][1]]
    return argv + ["--format", fmt]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(capsys, tmp_path, name):
    code = main(_argv(name, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN[name], f"stdout of {name} changed; it is now:\n{out}"
