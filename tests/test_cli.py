import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from supercomin.cli import build_parser, main
from supercomin.verify import EXPECTED_ORBITS

SRC = Path(__file__).resolve().parent.parent / "src"

ORACLE_GOLDEN = [
    ("osp1", {"n": 1}),
    ("sl", {"m": 2, "n": 1}),
    ("p", {"n": 2}),
    ("psl", {"n": 2}),
    ("W", {"n": 3}),
    ("S", {"n": 3}),
    ("H", {"n": 5}),
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_json_schema(capsys):
    code, out = run(["classify", "--family", "sl", "--m", "3", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["orbit_count"] == 10
    assert payload["family"] == "sl" and payload["params"] == [3, 2]
    assert len(payload["orbits"]) == 10
    for o in payload["orbits"]:
        assert o["principal_witness"] is not None
        assert all(isinstance(x, int) for x in o["principal_witness"])
        assert o["nilradical"]["verdict"] == "match"
        assert o["levi_decompositions"] == 1
    assert payload["checks"]["matches_expected_table"] is True


def test_classify_table_format(capsys):
    code, out = run(["classify", "--family", "osp2", "--n", "1",
                     "--format", "table"], capsys)
    assert code == 0
    assert "4 orbits" in out


def test_classify_exit_codes(capsys):
    # honest deviation from the source classification: F(4) reports one orbit
    code, out = run(["classify", "--family", "F4"], capsys)
    assert code == 1
    assert json.loads(out)["orbit_count"] == 1
    # cap exceeded
    code, _ = run(["classify", "--family", "p", "--n", "99"], capsys)
    assert code == 2
    # missing parameters
    code, _ = run(["classify", "--family", "sl", "--m", "2"], capsys)
    assert code == 2
    # invalid range
    code, _ = run(["classify", "--family", "psq", "--n", "2"], capsys)
    assert code == 2


def test_cap_refusal_builds_nothing(monkeypatch, capsys):
    """p(99), 19,503 roots, is refused by the root cap from its parameters,
    with one message by either subcommand, and is never built."""
    from supercomin import rootsys

    built = []
    monkeypatch.setitem(rootsys._BUILDERS, "p", built.append)
    monkeypatch.delitem(rootsys._SYSTEMS, ("p", (99,)), raising=False)
    for argv in (["classify"], ["oracle"]):
        assert main(argv + ["--family", "p", "--n", "99"]) == 2
        assert capsys.readouterr() == (
            "", "cap exceeded: p(99) has |Delta| = 19503, over the root cap "
                f"{rootsys.ROOT_CAP}\n")
    assert built == []


@pytest.mark.parametrize("family,n", [("p", 4), ("psq", 6)])
def test_classify_past_the_split_at_defaults(family, n, capsys):
    """p(4) (28 roots) and psq(6) (60), past the 26 roots up to which every
    family's report reads the exhaustive method, read it still, bounded by
    the node budget alone, and match their tables."""
    code, out = run(["classify", "--family", family, "--n", str(n)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exhaustive"
    assert payload["checks"]["matches_expected_table"] is True


@pytest.mark.parametrize("family,n,count", [("W", 40, 23089744183294),
                                            ("H", 30, 14348906)])
def test_root_cap_refuses_before_building(family, n, count, monkeypatch,
                                          capsys):
    """The root cap is what stops W(40) and H(30), of 10^13 and 10^7 roots,
    before the lift search starts: exit 2 at once, with nothing built."""
    from supercomin import rootsys

    built = []
    monkeypatch.setitem(rootsys._BUILDERS, family, built.append)
    start = time.perf_counter()
    assert main(["classify", "--family", family, "--n", str(n)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", f"cap exceeded: {family}({n}) has |Delta| = {count}, "
            f"over the root cap {rootsys.ROOT_CAP}\n")
    assert built == []


def test_verify_only_h(capsys):
    code, out = run(["verify", "--suite", "paper", "--only", "H"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(c["name"].startswith(("orbit", "repre", "unique", "princ",
                                     "module", "bracket", "verdict", "even",
                                     "realization"))
               for c in payload["checks"])


def test_verify_reports_honest_failures(capsys):
    code, out = run(["verify", "--suite", "paper", "--only", "F4"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert "orbit-count F4() == 0" in payload["failed_names"]


def test_verify_determinism(capsys):
    code1, out1 = run(["verify", "--suite", "paper", "--only", "p"], capsys)
    code2, out2 = run(["verify", "--suite", "paper", "--only", "p"], capsys)
    assert (code1, out1) == (code2, out2)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(["oracle", "--family", "osp1", "--n", "1",
                     "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_out_file_unwritable(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["oracle", "--family", "osp1", "--n", "1", "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write --out ")
    assert not path.exists()


@pytest.mark.parametrize("only,message", [
    (["nosuch"], "invalid choice"),
    (["osp_odd"], "invalid choice"),
    ([], "expected at least one argument"),
], ids=["nosuch", "osp_odd", "empty"])
def test_verify_only_unknown_family(only, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "paper", "--only"] + only)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --only: {message}" in err


@pytest.mark.parametrize("command", ["classify", "oracle"])
@pytest.mark.parametrize("argv,message", [
    (["--family", "F4", "--n", "3"], "family F4 does not take --n"),
    (["--family", "G3", "--m", "1", "--n", "2"],
     "family G3 does not take --m or --n"),
    (["--family", "H", "--m", "2", "--n", "5"], "family H does not take --m"),
    (["--family", "psl", "--m", "9", "--n", "2"],
     "family psl does not take --m"),
], ids=["F4-n", "G3-m-n", "H-m", "psl-m"])
def test_unused_parameter_rejected(command, argv, message, capsys):
    """A parameter the family does not take is an input error (exit 2), not
    silently dropped."""
    code = main([command] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("option", ["--subset-cap", "--orbit-cap"])
def test_negative_cap_rejected(option, capsys):
    """The caps are fixed, so a cap option is no option at all."""
    command = "classify" if option == "--orbit-cap" else "oracle"
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "H", "--n", "5", option, "-1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} -1" in capsys.readouterr().err


def test_env_cap_not_an_integer(monkeypatch, capsys):
    """``SUPERCOMIN_SUBSET_CAP`` is read by nothing, so a value that is not
    an integer changes no byte of ``oracle``."""
    argv = ["oracle", "--family", "osp1", "--n", "1"]
    monkeypatch.delenv("SUPERCOMIN_SUBSET_CAP", raising=False)
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv("SUPERCOMIN_SUBSET_CAP", "abc")
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.err == ""


@pytest.mark.parametrize("name", ["SUBSET", "ORBIT"])
def test_env_cap_negative(name, monkeypatch, capsys):
    """The subset and orbit caps are read from no variable, so a negative
    value changes no byte of the subcommand that once read it."""
    argv = ["classify" if name == "ORBIT" else "oracle",
            "--family", "osp1", "--n", "1"]
    monkeypatch.delenv(f"SUPERCOMIN_{name}_CAP", raising=False)
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv(f"SUPERCOMIN_{name}_CAP", "-1")
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.err == ""


@pytest.mark.parametrize("argv", [["oracle", "--family", "osp1", "--n", "1"],
                                  ["verify", "--only", "G3"],
                                  ["classify", "--family", "osp1", "--n", "1"]])
def test_env_cap_of_another_subcommand_ignored(argv, monkeypatch, capsys):
    """No subcommand reads a cap from the environment, so bad values of the
    variables that once set the subset and orbit caps stop none of them."""
    monkeypatch.setenv("SUPERCOMIN_SUBSET_CAP", "abc")
    monkeypatch.setenv("SUPERCOMIN_ORBIT_CAP", "-1")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,nodes", [
    (["oracle", "--family", "W", "--n", "3"], 1247),
    (["oracle", "--family", "H", "--n", "6"], 1546),
    (["classify", "--family", "H", "--n", "6"], 86),
    (["oracle", "--family", "p", "--n", "4"], 10581),
])
def test_largest_search_size(argv, nodes, monkeypatch, capsys):
    """The largest lift search of a run visits exactly ``nodes`` nodes: the
    run passes at that budget, with the bytes of the fixed budget, and one
    node below it exits 2 with the budget message and nothing on stdout."""
    from supercomin import kernel

    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(kernel, "NODE_CAP", nodes)
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")
    monkeypatch.setattr(kernel, "NODE_CAP", nodes - 1)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"cap exceeded: lift search visits more than {nodes - 1} nodes\n")


def test_largest_orbit_size(monkeypatch, capsys):
    """The largest orbit of ``classify H 6`` holds 6 subsets: the run passes
    with the orbit cap at 6, with the bytes of the fixed cap, and at 5 it
    exits 2 with the orbit message and nothing on stdout."""
    from supercomin import weyl

    argv = ["classify", "--family", "H", "--n", "6"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(weyl, "ORBIT_CAP", 6)
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")
    monkeypatch.setattr(weyl, "ORBIT_CAP", 5)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "cap exceeded: orbit exceeds cap 5\n")


def test_classify_s5_within_default_budget(capsys):
    """S(5), past the paper's table, classifies at the default options and
    matches its table."""
    code, out = run(["classify", "--family", "S", "--n", "5"], capsys)
    assert code == 0
    assert json.loads(out)["checks"]["matches_expected_table"] is True


@pytest.mark.parametrize("command", ["classify", "oracle", "verify"])
def test_no_lift_cap_option(command, capsys):
    """Every cap is fixed, so no subcommand takes a lift, subset or orbit
    cap."""
    for option in ("--lift-cap", "--subset-cap", "--orbit-cap"):
        argv = [command] + (["--family", "H", "--n", "5"] if command != "verify"
                            else []) + [option, "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 5" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--method", "--group"])
def test_classify_takes_no_method_or_group(option, capsys):
    """``classify`` has one enumeration engine and takes its group from
    the family, so it has no ``--method`` or ``--group``."""
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--family", "H", "--n", "5", option, "auto"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} auto" in capsys.readouterr().err


def test_verify_rejects_orbit_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--orbit-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --orbit-cap 5" in capsys.readouterr().err


def test_oracle_rejects_orbit_cap(capsys):
    """``oracle`` computes no orbits, so it takes no orbit cap."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--family", "H", "--n", "5", "--orbit-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --orbit-cap 5" in capsys.readouterr().err


def readme_commands():
    """The ``supercomin`` lines of README's "Command line" block, split as a
    shell would, comments dropped."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("supercomin ")]


def test_readme_commands_parse():
    """Every command README shows parses, so the docs name no removed
    option or family."""
    commands = readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


SELF_CHECKS = """
import sys
import time
from supercomin import feasible, verify
from supercomin.parabolic import RootSubset, principality_witness
from supercomin.rootsys import build_root_system

if not sys.flags.optimize:
    sys.exit("not running under -O")
face_masks = verify._face_masks


def swapped(rs):
    # the first two faces trade points
    out = face_masks(rs)
    a, b = list(out)[:2]
    out[a], out[b] = out[b], out[a]
    return out


def dropped(rs):
    # the first face goes, though principality_witness finds a witness
    out = face_masks(rs)
    del out[next(iter(out))]
    return out


def shifted(rs):
    # every root of psl(2|2) is a difference of coordinates, so adding 1 to
    # each keeps the induced subset and breaks the trace constraints
    out = face_masks(rs)
    P = next(iter(out))
    X, D = out[P]
    out[P] = ([x + D for x in X], D)
    return out


for mutant, instance, message in [(swapped, ("sl", (2, 1)), "induces"),
                                  (dropped, ("sl", (2, 1)), "no face point"),
                                  (shifted, ("psl", (2,)), "violates row")]:
    verify._face_masks = mutant
    try:
        verify.oracle_counts(*instance)
        sys.exit(f"oracle_counts accepted the {mutant.__name__} face points")
    except AssertionError as exc:
        if message not in str(exc):
            sys.exit(f"{mutant.__name__}: wrong self-check raised: {exc}")
verify._face_masks = face_masks
add = feasible.IncrementalFM.add
feasible.IncrementalFM.add = (
    lambda self, row: self.alive if row == (-1, 2) else add(self, row))
try:
    feasible.feasible_witness([(1, -5), (-1, 2)], 1)
    sys.exit("feasible_witness returned a point of an empty system")
except AssertionError:
    pass
rs = build_root_system("sl", (2, 1))
i = rs.parse_root("e2-d1")
rs.table.implied_rows = ((i, (0,), (0,)),) + tuple(
    e for e in rs.table.implied_rows if e[0] != i)
try:
    principality_witness(RootSubset(rs, 0x7))
    sys.exit("principality_witness skipped a row wrongly marked implied")
except AssertionError:
    pass
"""


def test_self_checks_survive_python_O():
    """The witness and oracle self-checks are not bare asserts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("family,ns", ORACLE_GOLDEN,
                         ids=[f[0] + str(tuple(n.values())) for f, n in ORACLE_GOLDEN])
def test_oracle_golden(family, ns, capsys, check_golden):
    """``oracle`` stdout, byte for byte."""
    argv = ["oracle", "--family", family]
    for k, v in ns.items():
        argv += [f"--{k}", str(v)]
    code, out = run(argv, capsys)
    assert code == 0
    check_golden(family + "_" + "_".join(str(v) for v in ns.values())
                  + ".json", out)


def _classify_argv(family, params):
    argv = ["classify", "--family", family]
    if family in ("sl", "osp"):
        argv += ["--m", str(params[0]), "--n", str(params[1])]
    elif params:
        argv += ["--n", str(params[0])]
    return argv


@pytest.mark.parametrize("family,params", [(f, p) for f, p, _ in EXPECTED_ORBITS],
                         ids=[f"{f}{p}" for f, p, _ in EXPECTED_ORBITS])
def test_classify_golden(family, params, capsys, check_golden):
    """``classify`` JSON of every table instance, byte for byte."""
    code, out = run(_classify_argv(family, params), capsys)
    assert code in (0, 1)
    check_golden("classify_" + "_".join([family] + [str(x) for x in params])
                  + ".json", out)


def test_verify_paper_golden(capsys, check_golden):
    """``verify --suite paper`` stdout, byte for byte."""
    code, out = run(["verify", "--suite", "paper"], capsys)
    assert code == 1
    check_golden("verify_paper.json", out)
