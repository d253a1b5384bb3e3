import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from akltmqc import cli


@pytest.fixture
def identity_circuit(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "wires": 1,
                "gates": [
                    {"gate": "init", "wire": 0},
                    {"gate": "readout", "wire": 0},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def cnot_circuit(tmp_path):
    path = tmp_path / "cnot.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "wires": 2,
                "gates": [
                    {"gate": "init", "wire": 0},
                    {"gate": "init", "wire": 1},
                    {"gate": "cnot", "control": 0, "target": 1},
                    {"gate": "readout", "wire": 0},
                    {"gate": "readout", "wire": 1},
                ],
            }
        )
    )
    return str(path)


def test_percolate_full_occupation(capsys):
    code = cli.main(
        ["percolate", "--p", "1.0", "--size", "8x16", "--trials", "100",
         "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "p,rows,cols,trials,fraction,stderr,format_version"
    fields = row.split(",")
    assert fields[0] == "1.0"
    assert float(fields[4]) == 1.0


def test_run_identity_example(capsys, identity_circuit):
    code = cli.main(
        ["run", "--lattice", "2x4", "--circuit", identity_circuit,
         "--seed", "1", "--mode", "exact"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["corrected"] == [0]
    assert data["kind"] == "run"
    assert data["format_version"] == 1


def test_run_byte_identical(tmp_path, identity_circuit):
    args = ["run", "--lattice", "2x4", "--circuit", identity_circuit,
            "--seed", "2", "--mode", "exact"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_artifact(capsys):
    code = cli.main(
        ["sample", "--lattice", "3x4", "--seed", "11", "--mode", "iid",
         "--trials", "3"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "sample"
    assert len(data["samples"]) == 3
    for i, rec in enumerate(data["samples"]):
        assert rec["trial"] == i
        assert len(rec["axes"]) == 3
        assert all(len(row) == 4 for row in rec["axes"])
        assert set("".join(rec["axes"])) <= set("xyz")


def test_route_artifact(capsys, identity_circuit):
    code = cli.main(
        ["route", "--lattice", "2x4", "--circuit", identity_circuit,
         "--seed", "1"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "route"
    assert "grid" in data["backbone"]
    assert "clusters" in data and "off_limits" in data


def test_missing_seed_is_validation_error(capsys):
    code = cli.main(["sample", "--lattice", "2x4"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_bad_size_is_validation_error(capsys):
    code = cli.main(["sample", "--lattice", "wide", "--seed", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_bad_circuit_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = cli.main(
        ["run", "--lattice", "2x4", "--circuit", str(bad), "--seed", "1"]
    )
    assert code == 1


_INIT0 = {"gate": "init", "wire": 0}
_READ0 = {"gate": "readout", "wire": 0}


@pytest.mark.parametrize(
    "circuit",
    [
        {"wires": 1.9, "gates": [
            {"gate": "init", "wire": 0.7}, {"gate": "readout", "wire": "0"},
        ]},
        {"wires": True, "gates": [_INIT0, _READ0]},
        {"wires": 1, "gates": [
            _INIT0, {"gate": "rz", "wire": 0, "theta": "0.5"}, _READ0,
        ]},
        {"wires": 1, "gates": [
            _INIT0, {"gate": "rx", "wire": 0, "theta": True}, _READ0,
        ]},
        {"wires": 2, "gates": [
            _INIT0, {"gate": "init", "wire": 1},
            {"gate": "cnot", "control": 0, "target": 1.0},
            _READ0, {"gate": "readout", "wire": 1},
        ]},
    ],
    ids=["fractions", "bool-wires", "string-theta", "bool-theta", "float-target"],
)
def test_circuit_fields_are_not_cast(capsys, tmp_path, circuit):
    # a circuit file is not cast: int() would run 1.9 wires as one
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(circuit))
    code = cli.main(["run", "--mode", "iid", "--lattice", "4x8", "--seed",
                     "1", "--circuit", str(path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "bad-arguments")


_IDENTITY = {"format_version": 1, "wires": 1, "gates": [_INIT0, _READ0]}


@pytest.mark.parametrize(
    "circuit",
    [
        {**_IDENTITY, "format_version": 99},
        {**_IDENTITY, "format_version": "1"},
        {**_IDENTITY, "format_version": True},
        {**_IDENTITY, "bogus": 1},
        {**_IDENTITY, "gates": [{**_INIT0, "bogus": 1}, _READ0]},
        {**_IDENTITY, "gates": [_INIT0, {**_READ0, "theta": 0.5}]},
    ],
    ids=["version-99", "string-version", "bool-version", "top-level-key",
         "init-key", "readout-theta"],
)
def test_circuit_format_is_checked(capsys, tmp_path, circuit):
    # a file written for another format must not run under format 1 rules
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(circuit))
    code = cli.main(["route", "--mode", "iid", "--lattice", "4x8", "--seed",
                     "2", "--circuit", str(path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "bad-arguments")


def test_circuit_without_format_version_reads_as_format_1(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"wires": 1, "gates": [_INIT0, _READ0]}))
    code = cli.main(["route", "--mode", "iid", "--lattice", "4x8", "--seed",
                     "2", "--circuit", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "route"


def test_unroutable_circuit_is_protocol_error(capsys, cnot_circuit):
    code = cli.main(
        ["run", "--lattice", "2x3", "--circuit", cnot_circuit,
         "--seed", "1", "--mode", "iid"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "protocol"


def test_removed_flag_is_validation_error(capsys):
    code = cli.main(
        ["percolate", "--p", "0.5", "--size", "4x8", "--trials", "10",
         "--seed", "3", "--jobs", "2"]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "bad-arguments")


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code = cli.main(
        ["percolate", "--p", "1.0", "--size", "4x8", "--trials", "10",
         "--seed", "3", "--out", "sweep.csv"]
    )
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()


def test_verify_line_format(capsys, monkeypatch):
    stub = [
        (1, "alpha", lambda: {"criterion": 1, "passed": True, "detail": "ok"}),
        (8, "beta", lambda: {"criterion": 8, "passed": True, "detail": "ok"}),
    ]
    monkeypatch.setattr(cli, "ACCEPTANCE_CHECKS", stub)
    assert cli.main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "PASS  1 alpha: ok" in out
    assert "passed 2/2 (full level)" in out
    # fast level skips the slow criteria entirely
    assert cli.main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "SKIP  8 beta" in out
    assert "passed 1/1 (fast level)" in out


def test_end_to_end_detail_is_pinned():
    # criterion 6's line as the per-leaf enumeration printed it, which the
    # columnar one reproduces digit for digit; verify's fast level runs it
    result = cli.check_end_to_end()
    assert result["passed"]
    assert result["detail"] == (
        "per-branch TV vs reference: identity 256br 0.0e+00, "
        "rot 2048br 5.0e-16, cnot 256br 0.0e+00"
    )
    assert 6 not in cli.SLOW_CRITERIA


def test_verify_failure_exits_two(capsys, monkeypatch):
    stub = [
        (1, "alpha", lambda: {"criterion": 1, "passed": False,
                              "detail": "broken"}),
    ]
    monkeypatch.setattr(cli, "ACCEPTANCE_CHECKS", stub)
    assert cli.main(["verify", "--level", "full"]) == 2
    assert "FAIL  1 alpha: broken" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["percolate", "--p", "0.5", "--size", "0x4", "--seed", "1"],
        ["percolate", "--p", "0.5", "--size", "4x8,3x0", "--seed", "1"],
        ["percolate", "--p", "0.5", "--size", "2000x1000", "--seed", "1"],
        ["sample", "--lattice", "2000x1000", "--mode", "iid", "--seed", "1"],
        ["sample", "--lattice", "2x4", "--mode", "iid", "--seed", "-1"],
        ["percolate", "--p", "0.5", "--size", "4x8", "--seed", "-1"],
        ["percolate", "--p", "", "--size", "4x4", "--seed", "1"],
        # required options and choices, enforced by the parser
        ["percolate", "--p", "0.5", "--size", "4x8"],
        ["route", "--lattice", "2x4", "--seed", "1"],
        ["sample", "--lattice", "2x4", "--seed", "1", "--mode", "fast"],
        ["sample", "--lattice", "2x4", "--seed", "1", "--term", "w"],
        ["run", "--lattice", "2x4", "--seed", "1", "--circuit", "c.json",
         "--term", "traced"],
        ["verify", "--level", "slow"],
        # range checks on parsed values
        ["sample", "--lattice", "2x4", "--mode", "iid", "--seed", "1",
         "--trials", "0"],
        ["route", "--lattice", "2x4", "--seed", "1", "--circuit", "c.json",
         "--spacing", "0"],
        ["percolate", "--p", "1.5", "--size", "4x8", "--seed", "1"],
        ["percolate", "--p", "a,b", "--size", "4x8", "--seed", "1"],
        ["run", "--lattice", "2x4", "--seed", "1", "--circuit",
         "no-such-circuit.json"],
    ],
)
def test_out_of_range_input_is_validation_error(capsys, argv):
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "bad-arguments")


@pytest.mark.parametrize("command", ["sample", "route", "run"])
def test_exact_over_strip_cap_is_lattice_size_error(
    capsys, identity_circuit, command
):
    argv = [command, "--lattice", "5x5", "--seed", "1", "--mode", "exact"]
    if command == "sample":
        argv += ["--term", "x"]
    else:
        argv += ["--circuit", identity_circuit]
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "lattice-size")


@pytest.mark.parametrize("leaf", [None, "x.csv"])
def test_unwritable_out_is_validation_error(capsys, tmp_path, leaf):
    # a directory cannot be opened for writing, nor a path through a file
    out = tmp_path
    if leaf is not None:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / leaf
    code = cli.main(
        ["percolate", "--p", "1.0", "--size", "4x8", "--trials", "10",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("validation", "bad-arguments")


def test_unfit_circuit_is_protocol_error(capsys, tmp_path):
    path = tmp_path / "three.json"
    gates = [{"gate": "init", "wire": w} for w in range(3)]
    gates += [{"gate": "readout", "wire": w} for w in range(3)]
    path.write_text(
        json.dumps({"format_version": 1, "wires": 3, "gates": gates})
    )
    code = cli.main(
        ["run", "--lattice", "2x4", "--circuit", str(path), "--seed", "1",
         "--mode", "exact"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["reason"]) == ("protocol", "no-embedding")
    assert "spacing-violation" in err["detail"]


# sha256 of each output as written by the parent of the change that moved
# cluster analysis onto integer site indices (commit 344b753), recorded
# with `python -m akltmqc.cli run --mode iid ...`: the two artifacts on
# stdout and the exhausted run's JSON error on stderr.
PARENT_DIGESTS = [
    ("20x40", "identity", "out",
     "6856fec6a3cc4285f9fc15f494020f958d91965a09e0b409c55a785517306b60"),
    ("8x16", "cnot", "out",
     "dbbef55645bad0a48643a03943ac5898315aad718a1dad5d396dc74080d12d8f"),
    ("20x40", "cnot", "err",
     "756885832bdc8acc95d7c77184c3d9dc65e478bdbadf8ac59beab684ac1f1b48"),
]


@pytest.mark.parametrize("size,circuit,stream,digest", PARENT_DIGESTS)
def test_iid_run_matches_parent_digest(
    capsys, request, size, circuit, stream, digest
):
    path = request.getfixturevalue(f"{circuit}_circuit")
    code = cli.main(["run", "--mode", "iid", "--lattice", size, "--seed", "11",
                     "--circuit", path])
    assert code == (0 if stream == "out" else 2)
    text = getattr(capsys.readouterr(), stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `route --mode iid` as written by the parent of the change that
# moved the backbone audit onto site indices (commit f5949f3): the routed
# 8x16 CNOT artifact on stdout (31 clusters, 7 off-limits pairs) and the
# 20x40 identity routing failure (cluster-loop) on stderr. The 20x40 seed 13
# identity artifact is a routed 40-column grid (41 wire, 23 extension and 53
# associate sites), written by the parent of the change that keeps the
# backbone on site indices (commit 975543a).
PARENT_ROUTE_DIGESTS = [
    ("8x16", "6", "cnot", "out",
     "b8f687b4260a0b801c5221f530be6a3350dd19b9b798fa1da3e8b53f076b7905"),
    ("20x40", "11", "identity", "err",
     "78de366b302bab5c1264f22d2cbb6aa8096250c3f5f633511874331905b470b3"),
    ("20x40", "13", "identity", "out",
     "5d75626a6e27a68bfe0638e2177b8836036e34c8c58dfbc728a74271cca14500"),
]


@pytest.mark.parametrize(
    "size,seed,circuit,stream,digest", PARENT_ROUTE_DIGESTS
)
def test_iid_route_matches_parent_digest(
    capsys, request, size, seed, circuit, stream, digest
):
    path = request.getfixturevalue(f"{circuit}_circuit")
    code = cli.main(["route", "--mode", "iid", "--lattice", size, "--seed",
                     seed, "--circuit", path])
    assert code == (0 if stream == "out" else 2)
    text = getattr(capsys.readouterr(), stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `run --mode iid` stdout as written by the parent of the change
# that folds each hanging branch once, at compile time (commit 58d06a2):
# plans whose widgets read folded branches, 6 of them in the 8x16 CNOT run
# and 4 in the 20x40 identity run.
PARENT_FOLD_DIGESTS = [
    ("8x16", "4", "cnot",
     "ef708ba47b6302097ca47d240b695aac4026be4ca4b5d3605b9222c3679e1314"),
    ("20x40", "12", "identity",
     "0db2b8a3bdc1b44d04bb553cbb7e704c89a33bd66a295c1316a8bd4581027beb"),
]


@pytest.mark.parametrize("size,seed,circuit,digest", PARENT_FOLD_DIGESTS)
def test_iid_folded_run_matches_parent_digest(
    capsys, request, size, seed, circuit, digest
):
    path = request.getfixturevalue(f"{circuit}_circuit")
    code = cli.main(["run", "--mode", "iid", "--lattice", size, "--seed",
                     seed, "--circuit", path])
    assert code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `run --mode iid` as written at commit bcf30c3, before iid
# attempts were drawn and analysed in blocks of 1, 2, 4, ... (at most 4096
# sites each): the 4x8 CNOT run's JSON error on stderr, which spends all
# 256 attempts, and identity runs that route inside a block, on attempt 5
# and 8 at 4x8 and on attempt 26 at 20x40 (blocks of at most 5 there).
BLOCK_DIGESTS = [
    ("4x8", "0", "cnot", "err",
     "c1f124707d830963f391e18684bd4da4db60c3b4a167422dfd8ba345e33f104b"),
    ("4x8", "2", "identity", "out",
     "6ff4ce66f0697917c4f9f9e53fc5da677f7af95c8af0557b2fd6bd072ba38f4d"),
    ("4x8", "10", "identity", "out",
     "9f0eb49851b32c0779708d7de6b55b11d2e73788a48dd018308a0000f1717e00"),
    ("20x40", "5", "identity", "out",
     "6de7a924f72a5ffdf061118b6ed58a981a6a9cae78eb4cf0a5f67802a612eda7"),
]


@pytest.mark.parametrize("size,seed,circuit,stream,digest", BLOCK_DIGESTS)
def test_iid_run_in_blocks_matches_parent_digest(
    capsys, request, size, seed, circuit, stream, digest
):
    path = request.getfixturevalue(f"{circuit}_circuit")
    code = cli.main(["run", "--mode", "iid", "--lattice", size, "--seed",
                     seed, "--circuit", path])
    assert code == (0 if stream == "out" else 2)
    text = getattr(capsys.readouterr(), stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `run --mode exact` stdout with the identity circuit, stage 2
# on the polarized layer engine. The qubit walk of commit d00fdeb drew the
# same outcome sequences for these seeds, with step probabilities within
# 2.2e-16; its digests were 55cdd1e8..., 5a3c7e17... and ff2a958b....
EXACT_DIGESTS = [
    ("2x4", "3",
     "e447dc80ba11210f23c27c2fff9b946cc0e4592cfd7e4af51e0a36277773b5ad"),
    ("2x6", "1",
     "d168dbbf4615b351e099ff2183cae4f83a3729c9e7c46fd8bc34d3ae33cf2829"),
    ("4x5", "3",
     "e0129f916b2f3c15b828d2f960e1834780ce4f9a33acda50837fbcd5598247e9"),
]


@pytest.mark.parametrize("size,seed,digest", EXACT_DIGESTS)
def test_exact_run_matches_pinned_digest(
    capsys, identity_circuit, size, seed, digest
):
    code = cli.main(["run", "--mode", "exact", "--lattice", size, "--seed",
                     seed, "--circuit", identity_circuit])
    assert code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture
def rzrx_circuit(tmp_path):
    path = tmp_path / "rzrx.json"
    gates = [
        {"gate": "init", "wire": 0},
        {"gate": "rz", "wire": 0, "theta": math.pi / 4},
        {"gate": "rx", "wire": 0, "theta": math.pi / 3},
        {"gate": "readout", "wire": 0},
    ]
    path.write_text(
        json.dumps({"format_version": 1, "wires": 1, "gates": gates})
    )
    return str(path)


# sha256 of exact `run` stdout with the Rz(pi/4) Rx(pi/3) circuit, x pin,
# recorded at commit a020be6, when stage 2 applied the frame rules event
# by event. Both rotation sites read a frame bit, so these pin the
# frame-adapted angles that the identity runs above never read.
ROTATION_DIGESTS = [
    ("2x6", "1",
     "e5c738e0bc5a13d1f3c4ea0fb04652326625824c256aff4472b6ac09297711b7"),
    ("2x6", "2",
     "ee3ba410dc5047396571758ca015e3b22b5ea628a8790719ac272bd57930261e"),
    ("4x16", "3",
     "db8ee569d73b6be27ae02e1cd13b6885485c3dd4f0fd6cf969204a86ff3f50de"),
    ("4x32", "1",
     "81f135d67ffddcb5792623c56a9e66f8c2dec987acd34667e4e2e35c303c1b8c"),
]


@pytest.mark.parametrize("size,seed,digest", ROTATION_DIGESTS)
def test_exact_rotation_run_matches_pinned_digest(
    capsys, rzrx_circuit, size, seed, digest
):
    code = cli.main(["run", "--mode", "exact", "--lattice", size, "--seed",
                     seed, "--circuit", rzrx_circuit])
    assert code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of exact `sample` stdout (stage 1 on the layer engine), recorded
# at commit d273925, before the engine memoized its site tensors: traced
# 4x32, x-pinned 4x8, and x-pinned 16x4, whose sweep lines are rows. Traced
# 4x320 was recorded at commit f1a0caa, before stage 1 kept a slice of its
# stacked line contraction as the next left environment: 320 slices, each
# rescaled, draw what the absorbed environments drew.
SAMPLE_DIGESTS = [
    ("4x32", "traced",
     "507dc579eeaba14c0a192ab8b1ac29c7c4a7970317b0596f49881d1dd7c59ca2"),
    ("4x8", "x",
     "19f02ca8538129353b508d42ed843097db5afbd760f666f2a590eb7c39c8f9d7"),
    ("16x4", "x",
     "32fa3960b79e2e3f77a67dabf9fd8e02994bce1203ce0736cab43d64f8462500"),
    ("4x320", "traced",
     "576574ee8766a2a18962d0bf906e62bfb9577ff44a2d5a1f4814bd493205da2e"),
]


@pytest.mark.parametrize("size,term,digest", SAMPLE_DIGESTS)
def test_exact_sample_matches_pinned_digest(capsys, size, term, digest):
    code = cli.main(["sample", "--mode", "exact", "--lattice", size,
                     "--seed", "3", "--term", term])
    assert code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `percolate` stdout, recorded at commit 4514503, when every
# trial was one sorted union-find over all bonds below the largest p:
# criterion 8's grid (p 0.60..0.70, the benchmark's argv) and one p.
PERCOLATE_DIGESTS = [
    (",".join(f"{0.60 + 0.01 * k:.2f}" for k in range(11)), "0",
     "fd93b94522ac119918ae968f22feb36d9b796f8f95659cce99fccdb72dc94810"),
    ("0.6667", "3",
     "c1bdc093b5c4a77bc09dd6ef7c54d6837fea48d4be01998fedbd2678a8c43cbd"),
]


@pytest.mark.parametrize(
    "ps,seed,digest", PERCOLATE_DIGESTS, ids=["criterion-8-grid", "one-p"]
)
def test_percolate_matches_pinned_digest(capsys, ps, seed, digest):
    code = cli.main(["percolate", "--p", ps, "--size", "12x24,24x48",
                     "--trials", "200", "--seed", seed])
    assert code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_PARSER_PROBE = """
import contextlib, io
from akltmqc import cli
at_import = cli._build_parser.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["sample", "--lattice", "2x2", "--mode", "iid", "--seed", "0"])
        cli.main(["verify", "--level", "slow"])
info = cli._build_parser.cache_info()
print(at_import, info.misses, info.hits)
"""


def test_parser_is_built_by_the_first_main_call():
    # a fresh interpreter: importing the CLI builds no parser, and two
    # main calls (one a usage error) build it once
    proc = subprocess.run(
        [sys.executable, "-c", _PARSER_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        check=True,
    )
    assert proc.stdout.split() == ["0", "1", "1"]
