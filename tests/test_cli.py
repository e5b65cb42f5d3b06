"""Exit codes, golden outputs, and format envelopes of the command line."""

import json
import os
import subprocess
import sys

import pytest

from ldlab import cli, magma
from ldlab.errors import DomainError

LAVER_2_CSV = "2,4,2,4\n3,4,3,4\n4,4,4,4\n1,2,3,4"

TREFOIL = "1 1 1"

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return out.rstrip("\n")


def test_laver_table_csv(capsys):
    assert run_ok(capsys, ["laver", "table", "--n", "2"]) == LAVER_2_CSV
    out = run_ok(capsys, ["laver", "table", "--n", "2", "--format", "csv"])
    assert out == LAVER_2_CSV


def test_laver_table_json_envelope(capsys):
    out = run_ok(capsys, ["laver", "table", "--n", "2", "--format", "json"])
    doc = json.loads(out)
    assert doc["schema"] == "laver-table/1"
    assert doc["data"] == [[2, 4, 2, 4], [3, 4, 3, 4], [4, 4, 4, 4],
                           [1, 2, 3, 4]]


def test_laver_period(capsys):
    assert run_ok(capsys, ["laver", "period", "--n", "3", "--p", "1"]) == "4"
    out = run_ok(capsys, ["laver", "period", "--n", "3", "--p", "1",
                          "--format", "json"])
    assert json.loads(out) == {"schema": "laver-period/1",
                               "data": {"n": 3, "p": 1, "period": 4}}


def test_order_rank3_golden(capsys):
    assert run_ok(capsys, ["order", "rank3", "1 2 1"]) == "w^2+1"
    assert run_ok(capsys, ["order", "rank3", ""]) == "0"


def test_order_compare_golden(capsys):
    assert run_ok(capsys, ["order", "compare", "--strands", "3", "", ""]) == "="
    assert run_ok(capsys, ["order", "compare", "--strands", "3",
                           "2", "1"]) == "<"
    assert run_ok(capsys, ["order", "compare", "--strands", "3",
                           "1", "2"]) == ">"


def test_order_anf_and_floor(capsys):
    assert run_ok(capsys, ["order", "anf", "--strands", "3",
                           "2 1 2"]) == "1 2 1"
    assert run_ok(capsys, ["order", "floor", "--strands", "3",
                           "1 2 1 1 2 1"]) == "1"
    assert run_ok(capsys, ["order", "floor", "--strands", "3", "1"]) == "0"


def test_braid_nf_echo(capsys):
    out = run_ok(capsys, ["braid", "nf", "--strands", "3", "1 2 -1"])
    assert out == "-1 | 2 3 1 ; 3 1 2"
    assert run_ok(capsys, ["braid", "nf", "--strands", "3", ""]) == "0 |"
    doc = json.loads(run_ok(capsys, ["braid", "nf", "--strands", "3",
                                     "1 2 -1", "--format", "json"]))
    assert doc["schema"] == "braid-nf/1"
    assert doc["data"] == {"strands": 3, "inf": -1,
                           "factors": [[2, 3, 1], [3, 1, 2]]}


def test_braid_eq(capsys):
    assert run_ok(capsys, ["braid", "eq", "--strands", "3",
                           "1 2 1", "2 1 2"]) == "true"
    assert run_ok(capsys, ["braid", "eq", "--strands", "3",
                           "1", "2"]) == "false"


def test_braid_word_roundtrip_through_nf(capsys):
    # nf of an already-rendered positive word parses back to an equal braid
    out = run_ok(capsys, ["order", "anf", "--strands", "3", "1 2 2 1"])
    assert run_ok(capsys, ["braid", "eq", "--strands", "3",
                           out, "1 2 2 1"]) == "true"


def test_cocycle_rank(capsys):
    assert run_ok(capsys, ["cocycle", "rank", "--rack", "dihedral:3",
                           "--degree", "2"]) == "3"
    assert run_ok(capsys, ["cocycle", "rank", "--rack", "laver:1",
                           "--degree", "2"]) == "2"
    assert run_ok(capsys, ["cocycle", "rank", "--rack", "laver:1",
                           "--degree", "3"]) == "3"


def test_cocycle_basis_grids(capsys):
    out = run_ok(capsys, ["cocycle", "basis", "--rack", "dihedral:3",
                          "--degree", "2"])
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert all(len(b.split("\n")) == 3 for b in blocks)
    code, _, err = run(capsys, ["cocycle", "basis", "--rack", "dihedral:3",
                                "--degree", "3"])
    assert code == 1
    assert "degree 2" in err


def test_cocycle_psi_grid(capsys):
    assert run_ok(capsys, ["cocycle", "psi", "--n", "1", "--q", "1"]) \
        == "1,0\n0,0"


def test_ybe_matrix_coo_sorted_by_column(capsys):
    out = run_ok(capsys, ["ybe", "matrix", "--rack", "dihedral:3"])
    rows = [tuple(int(v) for v in line.split()) for line in out.split("\n")]
    assert [r[1] for r in rows] == list(range(1, 10))
    assert all(r[2] == 1 for r in rows)
    assert rows[0] == (1, 1, 1)
    assert rows[1] == (7, 2, 1)


def test_ybe_matrix_csv(capsys):
    out = run_ok(capsys, ["ybe", "matrix", "--rack", "dihedral:3",
                          "--format", "csv"])
    lines = out.split("\n")
    assert len(lines) == 9
    assert all(len(line.split(",")) == 9 for line in lines)
    assert lines[0] == "1,0,0,0,0,0,0,0,0"


def test_ybe_check(capsys):
    out = run_ok(capsys, ["ybe", "check", "--rack", "dihedral:3"])
    assert out == "yang_baxter=true\ninvertible=true"


def test_color_count_trefoil(capsys):
    assert run_ok(capsys, ["color", "count", "--rack", "dihedral:3",
                           "--strands", "2", TREFOIL]) == "9"


def test_color_act(capsys):
    assert run_ok(capsys, ["color", "act", "--rack", "dihedral:3",
                           "--colors", "1,2", TREFOIL]) == "1,2"
    # a negative letter switches to the full rack action
    out = run_ok(capsys, ["color", "act", "--rack", "dihedral:3",
                          "--colors", "1,2", "1 -1"])
    assert out == "1,2"


def test_color_laver(capsys):
    out = run_ok(capsys, ["color", "laver", "--n", "2", "--mid", "1,1",
                          "--mode", "fraction", "-1 1"])
    left, right = out.split("\n")
    assert len(left.split(",")) == 2
    assert len(right.split(",")) == 2


def test_quandle_present(capsys):
    out = run_ok(capsys, ["quandle", "present", "--strands", "2", TREFOIL])
    assert out.startswith("<a, b |")
    grp = run_ok(capsys, ["quandle", "present", "--strands", "2",
                          "--group", TREFOIL])
    assert "a^-1" in grp


def test_conj_mu_and_class(capsys):
    assert run_ok(capsys, ["conj", "mu", "--strands", "3", "2"]) == "1"
    out = run_ok(capsys, ["conj", "class", "--strands", "3", "1 2"])
    assert out.split("\n") == ["1 2", "2 1"]


def test_conj_sweep_table(capsys):
    out = run_ok(capsys, ["conj", "sweep-conjecture", "--maxlen", "1"])
    assert out.split("\n") == ["- | - | disagrees",
                               "1 | 1 | disagrees",
                               "2 | 1 | disagrees"]
    doc = json.loads(run_ok(capsys, ["conj", "sweep-conjecture",
                                     "--maxlen", "1", "--format", "json"]))
    assert doc["schema"] == "conj-sweep/1"
    assert doc["data"][1] == {"word": [1], "mu": [1], "agrees": False}


def test_game_g3_trace(capsys):
    out = run_ok(capsys, ["game", "g3", "2 1", "--trace"])
    assert out.split("\n") == ["2 1", "2", "1 1", "1", "", "steps=4"]


def test_game_g3_plain_and_cap(capsys):
    assert run_ok(capsys, ["game", "g3", ""]) == "steps=0"
    assert run_ok(capsys, ["game", "g3", "1 1 1"]) == "steps=3"
    out = run_ok(capsys, ["game", "g3", "1 1 2 2 1 1", "--cap", "1000"])
    assert out == "aborted at=1000"


def test_game_g3_json(capsys):
    doc = json.loads(run_ok(capsys, ["game", "g3", "2 1", "--trace",
                                     "--format", "json"]))
    assert doc == {"schema": "game-g3/1",
                   "data": {"steps": 4, "finished": True,
                            "trace": ["2 1", "2", "1 1", "1", ""]}}


def test_ack_values(capsys):
    assert run_ok(capsys, ["ack", "3", "4"]) == "125"
    assert run_ok(capsys, ["ack", "3", "--diag"]) == "61"
    assert run_ok(capsys, ["ack", "2", "10", "--bound", "100"]) == "23"


def test_ack_errors(capsys):
    code, _, err = run(capsys, ["ack", "9", "9"])
    assert code == 1 and "level" in err
    code, _, err = run(capsys, ["ack", "0", "9999999"])
    assert code == 1 and "bound" in err
    code, _, err = run(capsys, ["ack", "1", "2", "3"])
    assert code == 2
    code, _, err = run(capsys, ["ack", "1", "2", "--diag"])
    assert code == 2


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, ["braid", "nf", "--strands", "3", "3"])
    assert code == 1 and "out of range" in err
    code, _, err = run(capsys, ["ybe", "matrix", "--rack", "nonsense:9"])
    assert code == 1 and "unknown rack spec" in err
    code, _, err = run(capsys, ["game", "g3", "--cap", "-1", "1"])
    assert code == 1 and "cap" in err
    code, _, err = run(capsys, ["color", "act", "--rack", "dihedral:3",
                                "--colors", "1,a", "1"])
    assert code == 1 and "comma-separated" in err


def test_law_scan_memory_cap_exits_one(capsys, monkeypatch):
    # the LD scan of a 25-element rack holds one getter per row, so a 100 kB
    # cap lets it run, and it loads no numpy
    monkeypatch.setenv("LDLAB_MAX_MEM", "100000")
    code, out, err = run(capsys, ["color", "act", "--rack", "dihedral:25",
                                  "--colors", "1,1", "1"])
    assert (code, out, err) == (0, "1,1\n", "")
    assert "numpy" not in loaded_after(
        "ldlab.cli.main(['color', 'act', '--rack', 'dihedral:25', '--colors', '1,1', '1'])")


def test_psi_memory_cap_exits_one(capsys, monkeypatch):
    # the 8 x 8 grid of psi on A_3 needs 512 bytes
    monkeypatch.setenv("LDLAB_MAX_MEM", "100")
    code, out, err = run(capsys, ["cocycle", "psi", "--n", "3", "--q", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "LDLAB_MAX_MEM" in err


def test_conj_class_memory_cap_exits_one(capsys, monkeypatch):
    # the 718 simple conjugators of B_6 are over a 100 kB cap
    monkeypatch.setenv("LDLAB_MAX_MEM", "100000")
    code, out, err = run(capsys, ["conj", "class", "--strands", "6", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "LDLAB_MAX_MEM" in err


def loaded_after(statement):
    """The modules a fresh interpreter has loaded after `import ldlab.cli`
    and then `statement`; the command's own output goes to stderr."""
    code = ("import contextlib, sys, ldlab.cli\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            f"    {statement}\n"
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return set(done.stdout.split())


def ldlab_modules(loaded):
    return {name for name in loaded if name.startswith("ldlab.")}


def test_cli_import_leaves_numpy_out():
    # ldlab has no runtime dependency, so nothing pulls numpy in at start-up
    assert "numpy" not in loaded_after("pass")


def test_cli_import_loads_no_library_module():
    assert ldlab_modules(loaded_after("pass")) == {"ldlab.cli", "ldlab.errors"}


def test_invariants_leave_braid_out():
    # a colouring count on a plain letter tuple never needs normal forms
    loaded = ldlab_modules(loaded_after(
        "import ldlab.invariants as inv, ldlab.magma as mg; "
        "print(inv.count_closure_colourings(mg.dihedral_quandle(3), (1, -1, 1), 2))"))
    assert "ldlab.invariants" in loaded
    assert "ldlab.braid" not in loaded


def test_order_command_loads_only_braid_and_order():
    loaded = loaded_after("ldlab.cli.main(['order', 'rank3', '1 2 1'])")
    assert ldlab_modules(loaded) == {"ldlab.braid", "ldlab.order",
                                     "ldlab.errors", "ldlab.cli"}


def test_laver_command_leaves_braid_out():
    loaded = ldlab_modules(
        loaded_after("ldlab.cli.main(['laver', 'table', '--n', '2'])"))
    assert "ldlab.laver" in loaded
    assert not loaded & {"ldlab.braid", "ldlab.order"}


def test_color_count_leaves_homology_and_laver_out():
    loaded = ldlab_modules(loaded_after(
        "ldlab.cli.main(['color', 'count', '--rack', 'dihedral:3', "
        "'--strands', '2', '1 1 1'])"))
    assert "ldlab.invariants" in loaded
    assert not loaded & {"ldlab.homology", "ldlab.linalg", "ldlab.laver"}


def test_usage_errors_exit_two(capsys):
    assert run(capsys, ["laver", "bogus"])[0] == 2
    assert run(capsys, ["laver"])[0] == 2
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["order", "compare", "--strands", "3", "1"])[0] == 2


def test_outputs_deterministic(capsys):
    argvs = [["laver", "table", "--n", "3"],
             ["cocycle", "basis", "--rack", "dihedral:5", "--degree", "2"],
             ["conj", "class", "--strands", "3", "1 1 2"],
             ["ybe", "matrix", "--rack", "laver:2"]]
    for argv in argvs:
        first = run_ok(capsys, argv)
        assert run_ok(capsys, argv) == first


def test_parse_rack_spec_builtin():
    assert magma.parse_rack_spec("dihedral:5").m == 5
    assert magma.parse_rack_spec("affine:5:2").m == 5
    assert magma.parse_rack_spec("laver:2").m == 4


def test_parse_rack_spec_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text(LAVER_2_CSV + "\n")
    M = magma.parse_rack_spec(f"file:{path}")
    assert M.m == 4
    assert M.op == magma.parse_rack_spec("laver:2").op
    out = run_ok(capsys, ["cocycle", "rank", "--rack", f"file:{path}",
                          "--degree", "2"])
    assert out == run_ok(capsys, ["cocycle", "rank", "--rack", "laver:2",
                                  "--degree", "2"])


def test_parse_rack_spec_rejects():
    for bad in ("dihedral:x", "affine:3", "file:/no/such/file.csv",
                "foo:1", ""):
        with pytest.raises(DomainError):
            magma.parse_rack_spec(bad)


# a constructor's DomainError is a ValueError too; it must keep its message.
# Each id names the spec and the bound it breaks.
CONSTRUCTOR_ERRORS = [
    pytest.param("affine:6:2", "t = 2 is not invertible mod 6",
                 id="affine:6:2-t = 2 is not invertible mod 6"),
    pytest.param("dihedral:0", "k must be an integer >= 1, got 0",
                 id="dihedral:0-need k >= 1, got 0"),
    pytest.param("laver:-1", "n must be an integer >= 0, got -1",
                 id="laver:-1-need n >= 0, got -1")]


@pytest.mark.parametrize("spec, message", CONSTRUCTOR_ERRORS)
def test_parse_rack_spec_keeps_constructor_message(spec, message):
    with pytest.raises(DomainError, match=message):
        magma.parse_rack_spec(spec)


@pytest.mark.parametrize("spec, message", CONSTRUCTOR_ERRORS)
def test_rack_spec_constructor_error_exits_one(capsys, spec, message):
    code, out, err = run(capsys, ["cocycle", "rank", "--rack", spec,
                                  "--degree", "2"])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
