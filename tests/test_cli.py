import json
import os
import pathlib
import subprocess
import sys

import pytest

import heckecell
from heckecell import laurent, verification
from heckecell.cli import MAX_CELLULAR_LENGTH, MAX_KL_LENGTH, MAX_WITNESSES, main
from heckecell.hecke import Hecke

# stdout of `cellular-basis --type C --rank 2 --params P --length-bound 12
# --output json`, keyed by P, as recorded before the sparse-algebra merge
GOLDEN_C2 = json.loads(
    (pathlib.Path(__file__).parent / "golden_cellular_basis_c2.json").read_text())
# stdout of `cellular-basis --type A --rank 3 --length-bound 6 --output json`
GOLDEN_A3 = (pathlib.Path(__file__).parent / "golden_cellular_basis_a3.json").read_text()
# stdout of `paths ARGS --witnesses --output json`, keyed by ARGS
GOLDEN_PATHS = json.loads(
    (pathlib.Path(__file__).parent / "golden_paths.json").read_text())
# stdout of `cell-factor ARGS --output json`, keyed by ARGS, as recorded
# before B_0 and X_0 were read off the root shifts
GOLDEN_CELL_FACTOR = json.loads(
    (pathlib.Path(__file__).parent / "golden_cell_factor.json").read_text())
# stdout of `kl ARGS --output json`, keyed by ARGS, as recorded before
# reduced_word stripped the Pi-part by the cached step
GOLDEN_KL = json.loads(
    (pathlib.Path(__file__).parent / "golden_kl_cli.json").read_text())
# stdout of `kl ARGS` (the text form), keyed by the same ARGS, as recorded
# before LaurentPoly read one-digit values off the packed int
GOLDEN_KL_TEXT = json.loads(
    (pathlib.Path(__file__).parent / "golden_kl_cli_text.json").read_text())
# stdout of the text form (no --output) of `cellular-basis` and `paths
# --witnesses`, keyed by the whole argument line
GOLDEN_TEXT = json.loads(
    (pathlib.Path(__file__).parent / "golden_cli_text.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kl_w0_table(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2", "--w", "[1,2,1]")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + six W_0 terms
    assert "(q^-3)  T_[]" in out
    assert "(1)  T_[1,2,1]" in out


def test_kl_identity(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2", "--w", "[]")
    assert code == 0
    assert out.strip().splitlines()[-1] == "(1)  T_[]"


def test_kl_json_roundtrip(capsys):
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "2",
                       "--w", "pi^1*[0]", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["w"]["pi"] == 1 and payload["w"]["word"] == [0]
    assert len(payload["C_w"]) == 2


@pytest.mark.parametrize("args", sorted(GOLDEN_KL))
def test_kl_golden(capsys, args):
    # pins C_w and each element's JSON byte for byte; its word comes from
    # reduced_word, here with Pi-parts of order 3, 4 and 2, and in
    # C2 (3,2,1), whose Pi is trivial, so pi^1 reads as pi^0
    code, out, _ = run(capsys, "kl", *args.split(), "--output", "json")
    assert code == 0
    assert out == GOLDEN_KL[args]


def test_kl_golden_from_a_cold_and_a_warm_kept_json(capsys):
    # every other test sees the kept forms of LaurentPoly.to_json already
    # filled: here each golden is printed from none, then again from its own
    kept = []
    for args in sorted(GOLDEN_KL):
        laurent._KEPT_JSON.clear()
        for _ in range(2):
            code, out, _ = run(capsys, "kl", *args.split(), "--output", "json")
            assert code == 0
            assert out == GOLDEN_KL[args]
        kept.append(len(laurent._KEPT_JSON))
    assert any(kept)  # some golden coefficient has two digits or more


def test_kl_text_golden_has_the_json_golden_arguments():
    assert sorted(GOLDEN_KL_TEXT) == sorted(GOLDEN_KL)


@pytest.mark.parametrize("args", sorted(GOLDEN_KL_TEXT))
def test_kl_text_golden(capsys, args):
    # pins hecke_text, and so LaurentPoly.__str__ and element_text, byte for byte
    code, out, _ = run(capsys, "kl", *args.split())
    assert code == 0
    assert out == GOLDEN_KL_TEXT[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_TEXT))
def test_text_output_golden(capsys, args):
    # pins the text branches of cellular-basis (phi matrix, decompositions)
    # and of paths (profile, witness listing) byte for byte
    code, out, _ = run(capsys, *args.split())
    assert code == 0
    assert out == GOLDEN_TEXT[args]


# a generator or pi index out of range, a word that is not a list or a
# lambda of the wrong rank is a parse error, never a wrapped index or a traceback
@pytest.mark.parametrize("w", [
    "[[bad",
    '{"word":[-1]}',
    '{"lambda":[0,0],"u":[-1]}',
    '{"pi":5,"word":[]}',
    '{"lambda":[0,0],"u":[7]}',
    '{"word":"12"}',
    '{"lambda":[0],"u":[]}',
], ids=["text", "word-negative", "u-negative", "pi-over", "u-over", "word-string", "lambda-short"])
def test_parse_error_exit_code(capsys, w):
    code, _, err = run(capsys, "kl", "--type", "A", "--rank", "2", "--w", w)
    assert code == 2
    assert "error" in err


def test_bad_params_exit_code(capsys):
    code, _, err = run(capsys, "kl", "--type", "C", "--rank", "2",
                       "--params", "1,1,2", "--w", "[]")
    assert code == 2


def test_cell_factor(capsys):
    code, out, _ = run(capsys, "cell-factor", "--type", "A", "--rank", "2",
                       "--w", "[1,2,1]")
    assert code == 0
    assert "z      = []" in out and "tau    = (0,0)" in out
    code, out, _ = run(capsys, "cell-factor", "--type", "A", "--rank", "2", "--w", "[]")
    assert code == 0 and "not in c_0" in out


def test_cell_factor_roundtrip_json(capsys):
    code, out, _ = run(capsys, "cell-factor", "--type", "A", "--rank", "2",
                       "--w", "pi^1*[0,1,0,2,1]", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["tau"] == [0, 1]
    assert "z" in payload and "zprime" in payload


@pytest.mark.parametrize("args", sorted(GOLDEN_CELL_FACTOR))
def test_cell_factor_golden(capsys, args):
    # pins membership and the (z, tau, z') triple, byte for byte, in A2,
    # C2 (3,2,1) and A3, with z and z' off the identity and non-members
    code, out, _ = run(capsys, "cell-factor", *args.split(), "--output", "json")
    assert code == 0
    assert out == GOLDEN_CELL_FACTOR[args]


def test_paths_command(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A", "--rank", "2",
                       "--m", "1,1,2,2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["(-1,-1)"] == 4
    assert payload["profile"]["(0,0)"] == 2


def test_paths_refuses_a_type_other_than_a(capsys):
    code, out, err = run(capsys, "paths", "--type", "C", "--rank", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err == "error: path profiles are a type-A feature\n"


def test_paths_witnesses(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A", "--rank", "1",
                       "--m", "1,1", "--witnesses", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"]["(-2)"] == [[[1], [1]]]


def test_paths_witnesses_walk_once(capsys, monkeypatch):
    # 12 steps in A1 end at 7 points: one walk of every path fills every
    # listing, each in the walk's order and as long as its profile count
    walks = []
    enumerate_paths = heckecell.paths.enumerate_paths
    monkeypatch.setattr(heckecell.paths, "enumerate_paths",
                        lambda *a: walks.append(a) or enumerate_paths(*a))
    code, out, _ = run(capsys, "paths", "--type", "A", "--rank", "1",
                       "--m", ",".join(["1"] * 12), "--witnesses", "--output", "json")
    assert code == 0 and len(walks) == 1
    payload = json.loads(out)
    assert len(payload["witnesses"]) == 7
    assert {g: len(ps) for g, ps in payload["witnesses"].items()} == payload["profile"]
    listed = [tuple(map(tuple, p)) for ps in payload["witnesses"].values() for p in ps]
    order = {p: k for k, p in enumerate(enumerate_paths(*walks[0]))}
    for ps in payload["witnesses"].values():
        keys = [order[tuple(map(tuple, p))] for p in ps]
        assert keys == sorted(keys)
    assert sorted(listed) == sorted(order)


def test_paths_witness_listing_is_bounded(capsys):
    # 1,100 steps in A1 have far more paths than the listing bound: the
    # listing is refused with exit 3 before a path is walked
    steps = ",".join(["1"] * 1100)
    code, out, err = run(capsys, "paths", "--type", "A", "--rank", "1", "--m", steps,
                         "--witnesses")
    assert (code, out) == (3, "")
    assert err == f"error: more than {MAX_WITNESSES} paths to list\n"


def _a1_word(length):
    """An alternating word in A1, which is reduced: an element of that length."""
    return "[" + ",".join(str(k % 2) for k in range(length)) + "]"


def test_kl_refuses_an_element_past_its_length_budget(monkeypatch, capsys):
    # an element longer than MAX_KL_LENGTH is refused with exit 3 before any
    # KL element is asked for; one of exactly that length is computed
    calls = []
    kl_basis = Hecke.kl_basis
    monkeypatch.setattr(Hecke, "kl_basis", lambda self, w: calls.append(w) or kl_basis(self, w))
    code, out, err = run(capsys, "kl", "--type", "A", "--rank", "1",
                         "--w", _a1_word(MAX_KL_LENGTH + 1))
    assert (code, out, calls) == (3, "", [])
    assert err == f"error: element of length {MAX_KL_LENGTH + 1} exceeds the kl bound {MAX_KL_LENGTH}\n"
    code, out, _ = run(capsys, "kl", "--type", "A", "--rank", "1", "--w", _a1_word(MAX_KL_LENGTH))
    assert code == 0 and len(calls) == 1 and out.startswith("C_w for w = ")


def test_cellular_basis_refuses_a_length_bound_past_its_budget(monkeypatch, capsys):
    # a --length-bound above MAX_CELLULAR_LENGTH is refused with exit 3
    # before the stack is built; the budget itself runs (in A1, where it is
    # cheap)
    calls = []
    stack = verification.stack
    monkeypatch.setattr(verification, "stack", lambda key: calls.append(key) or stack(key))
    code, out, err = run(capsys, "cellular-basis", "--type", "A", "--rank", "1",
                         "--length-bound", str(MAX_CELLULAR_LENGTH + 1))
    assert (code, out, calls) == (3, "", [])
    assert err == (f"error: length bound {MAX_CELLULAR_LENGTH + 1} exceeds the cellular-basis "
                   f"bound {MAX_CELLULAR_LENGTH}\n")
    code, out, _ = run(capsys, "cellular-basis", "--type", "A", "--rank", "1",
                       "--length-bound", str(MAX_CELLULAR_LENGTH), "--output", "json")
    assert code == 0 and len(calls) == 1 and set(json.loads(out)) == {"phi", "decompositions"}


def test_cellular_basis_a1(capsys):
    code, out, _ = run(capsys, "cellular-basis", "--type", "A", "--rank", "1",
                       "--length-bound", "5", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"]["([],[])"] == {"(0)": "q + q^-1"}
    assert payload["decompositions"]["(0)"] == {"(0)": 1}


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_output_determinism(capsys):
    args = ("cellular-basis", "--type", "A", "--rank", "1",
            "--length-bound", "6", "--output", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cellular_basis_a2_flagship_profile(capsys):
    code, out, _ = run(capsys, "cellular-basis", "--type", "A", "--rank", "2",
                       "--length-bound", "11", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decompositions"]["(2,2)"] == {
        "(-1,-1)": 4, "(-2,-2)": 1, "(-3,0)": 1, "(0,-3)": 1, "(0,0)": 2,
    }


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "type-a-paths")
    assert code == 0
    assert "4/4 checks passed" in out


@pytest.mark.parametrize("params", sorted(GOLDEN_C2))
def test_cellular_basis_c2_golden(capsys, params):
    # unequal parameters: pins phi_form's peel and decompose_P_tau in C2
    code, out, _ = run(capsys, "cellular-basis", "--type", "C", "--rank", "2",
                       "--params", params, "--length-bound", "12", "--output", "json")
    assert code == 0
    assert out == json.dumps(GOLDEN_C2[params], indent=2, sort_keys=True) + "\n"


def test_cellular_basis_a3_golden(capsys):
    # phi on all 576 box pairs of A3 and the decompositions, byte for byte
    code, out, _ = run(capsys, "cellular-basis", "--type", "A", "--rank", "3",
                       "--length-bound", "6", "--output", "json")
    assert code == 0
    assert out == GOLDEN_A3


@pytest.mark.parametrize("args", sorted(GOLDEN_PATHS))
def test_paths_golden(capsys, args):
    # pins the orbit-driven profile and the witness listing, byte for byte
    code, out, _ = run(capsys, "paths", *args.split(), "--witnesses", "--output", "json")
    assert code == 0
    assert out == json.dumps(GOLDEN_PATHS[args], indent=2, sort_keys=True) + "\n"


# A minimal valid invocation per subcommand, and the flags it does not honour.
MINIMAL = {
    "kl": ("kl", "--w", "[]"),
    "cell-factor": ("cell-factor", "--w", "[]"),
    "cellular-basis": ("cellular-basis", "--rank", "1"),
    "paths": ("paths", "--rank", "1", "--m", "1"),
    "verify": ("verify", "--suite", "type-a-paths"),
}
UNHONOURED = [
    ("kl", "--length-bound"), ("kl", "--seed"),
    ("cell-factor", "--length-bound"), ("cell-factor", "--seed"),
    ("cellular-basis", "--seed"),
    ("paths", "--length-bound"), ("paths", "--seed"),
    ("verify", "--type"), ("verify", "--rank"), ("verify", "--params"),
    ("verify", "--length-bound"), ("verify", "--output"),
]
FLAG_VALUES = {"--type": "A", "--params": "1,1,1", "--output": "json"}


@pytest.mark.parametrize("command,flag", UNHONOURED)
def test_unhonoured_flag_rejected(capsys, command, flag):
    code, out, err = run(capsys, *MINIMAL[command], flag, FLAG_VALUES.get(flag, "3"))
    assert code == 2
    assert "unrecognized arguments" in err and flag in err
    assert out == ""


@pytest.mark.parametrize("command, flag, value", [
    ("kl", "--params", "1,,1,1"),
    ("kl", "--params", "1,1,1,"),
    ("kl", "--params", ""),
    ("paths", "--m", "1,,2"),
    ("paths", "--m", ",1,2"),
    ("paths", "--m", "1, ,2"),
], ids=["params-inner", "params-trailing", "params-empty", "m-inner", "m-leading", "m-blank"])
def test_an_empty_list_field_is_rejected(capsys, command, flag, value):
    # an empty field is a usage error, never dropped: kl --params 1,,1,1
    # does not run as 1,1,1, nor paths --m 1,,2 as 1,2
    base = {"kl": ("kl", "--type", "A", "--rank", "2", "--w", "[]"),
            "paths": ("paths", "--type", "A", "--rank", "2", "--m", "1,2")}[command]
    code, out, err = run(capsys, *base, flag, value)
    assert code == 2
    assert f"argument {flag}: empty field in {value!r}" in err
    assert out == ""


@pytest.mark.parametrize("bound", ["-5", "-1"])
def test_cellular_basis_rejects_a_negative_length_bound(capsys, bound):
    # a negative bound is refused, never clamped to 0
    code, out, err = run(capsys, *MINIMAL["cellular-basis"], "--length-bound", bound)
    assert code == 2
    assert "--length-bound" in err and f"must be >= 0, not {bound}" in err
    assert out == ""


def test_cellular_basis_accepts_a_length_bound_of_zero(capsys):
    code, out, _ = run(capsys, *MINIMAL["cellular-basis"], "--length-bound", "0",
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["decompositions"] == {"(0)": {"(0)": 1}}


@pytest.mark.parametrize("suite", ["kl-axioms", "lowest-cell", "cellular", "type-a-paths"])
def test_verify_seed_rejected_for_unsampled_suites(capsys, suite):
    # only degree-bounds samples its checks; any other suite would ignore a seed
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "3")
    assert code == 2
    assert "--seed" in err and "degree-bounds" in err
    assert out == ""


# the package's parent directory, so a child interpreter imports this tree
SRC_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(heckecell.__file__).parent.parent)}


def test_closed_stdout_ends_quietly():
    # `heckecell ... | head -1`: the reader goes away after one line, with
    # most of the output unwritten; no traceback, and the exit code is the
    # closed-stdout one, not 1 (a verification failure)
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckecell.cli", "cellular-basis", "--type", "A", "--rank", "3",
         "--length-bound", "6", "--output", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_stdout_closed_before_the_first_write():
    # the reader is gone before the child starts, so even a short reply fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heckecell.cli", "kl", "--w", "[1,2,1]"],
            stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_bound_exceeded_has_its_own_exit_code():
    # the child makes kl raise BoundExceeded whatever its input
    script = (
        "import sys\n"
        "from heckecell import cli\n"
        "from heckecell.lowestcell import BoundExceeded\n"
        "def over(args):\n"
        "    raise BoundExceeded('element of length 9 exceeds bound 8')\n"
        "cli.COMMANDS['kl'] = over\n"
        "sys.exit(cli.main(['kl', '--w', '[]']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=SRC_ENV, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == b"error: element of length 9 exceeds bound 8\n"
    assert proc.stdout == b""


def test_cellular_basis_past_its_length_budget_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "heckecell.cli", "cellular-basis", "--type", "A", "--rank", "3",
         "--length-bound", str(MAX_CELLULAR_LENGTH + 1), "--output", "json"],
        capture_output=True, env=SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == (f"error: length bound {MAX_CELLULAR_LENGTH + 1} exceeds the "
                           f"cellular-basis bound {MAX_CELLULAR_LENGTH}\n").encode()


def test_kl_past_its_length_budget_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "heckecell.cli", "kl", "--type", "A", "--rank", "1",
         "--w", _a1_word(MAX_KL_LENGTH + 1), "--output", "json"],
        capture_output=True, env=SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == (f"error: element of length {MAX_KL_LENGTH + 1} exceeds "
                           f"the kl bound {MAX_KL_LENGTH}\n").encode()
