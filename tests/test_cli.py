import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest

from quotcoh import bott, cli, indices, schur


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_lr(capsys):
    code, doc = run_json(capsys, "lr", "--alpha", "2,1", "--beta", "2,1",
                         "--gamma", "3,2,1")
    assert code == 0
    assert doc == {"coefficient": "2"}


def test_lr_empty_partition(capsys):
    code, doc = run_json(capsys, "lr", "--alpha", "-", "--beta", "2",
                         "--gamma", "2")
    assert code == 0 and doc["coefficient"] == "1"


def test_cauchy(capsys):
    code, doc = run_json(capsys, "cauchy", "--ell", "2", "--rank-left", "3",
                         "--rank-right", "2")
    assert code == 0
    assert doc["terms"] == [
        {"left": ["1", "1"], "right": ["2"]},
        {"left": ["2"], "right": ["1", "1"]},
    ]


def test_bwb(capsys):
    code, doc = run_json(capsys, "bwb", "--d", "4", "--n", "2",
                         "--quot", "0,0", "--sub", "1,0")
    assert code == 0
    assert doc["vanishes"] is True and doc["chi"] == "0"

    code, doc = run_json(capsys, "bwb", "--d", "2", "--n", "1",
                         "--quot", "0", "--sub", "2")
    assert code == 0
    assert doc["degree"] == "1" and doc["dimension"] == "1"
    assert doc["chi"] == "-1"


def test_bwb_document(capsys, count_calls):
    # S_(0,-4)(B) on G(5,2): one group, in odd degree, of dimension 5, all
    # read off one Borel-Weil-Bott run
    runs = count_calls(bott, "bwb")
    code, doc = run_json(capsys, "bwb", "--d", "5", "--n", "2",
                         "--quot", "0,-4", "--sub", "0,0,0")
    assert code == 0
    assert doc == {"vanishes": False, "degree": "3",
                   "gl_weight": ["0", "-1", "-1", "-1", "-1"],
                   "dimension": "5", "chi": "-5", "dims": {"3": "5"}}
    assert list(doc) == ["vanishes", "degree", "gl_weight", "dimension",
                         "chi", "dims"]
    assert len(runs) == 1


def test_index(capsys):
    code, doc = run_json(capsys, "index", "--lambda", "8,7,4,3,3,1",
                         "--n", "2")
    assert code == 0
    assert doc["defined"] is True and doc["index"] == "3"

    code, doc = run_json(capsys, "index", "--lambda", "7,6,3,2,2",
                         "--n", "3", "--k", "1")
    assert code == 0
    assert doc["index"] == "2" and doc["shape"] == "b"


def test_chi(capsys):
    code, doc = run_json(capsys, "chi", "--N", "2", "--n", "1", "--r", "0",
                         "--m", "1", "--functor", "wedge", "--k", "1")
    assert code == 0
    assert doc["chi"] == "4"


def test_chi_of_a_large_twist(capsys):
    # Borel-Weil-Bott and the Weyl formula on weights of about 6,000
    # entries; the Euler characteristic is 2m + 2
    code, doc = run_json(capsys, "chi", "--N", "2", "--n", "1", "--r", "0",
                         "--m", "3000", "--functor", "wedge", "--k", "1")
    assert code == 0
    assert doc["chi"] == "6002"


def test_cohomology(capsys):
    code, doc = run_json(capsys, "cohomology", "--N", "2", "--n", "2",
                         "--r", "0", "--m", "2", "--functor", "wedge",
                         "--k", "1")
    assert code == 0
    assert doc["degenerate"] is True
    assert doc["dims"] == {"0": "6"}
    assert doc["per_term"][0]["acyclic"] is False
    assert all(row["acyclic"] for row in doc["per_term"][1:])


def test_verify_theorem_c(capsys):
    code, doc = run_json(capsys, "verify", "theorem-c", "--N", "2",
                         "--n", "1", "--m", "1", "--ks", "1")
    assert code == 0
    assert doc["verified"] is True and doc["all_zero"] is True


def test_verify_theorem_a(capsys):
    code, doc = run_json(capsys, "verify", "theorem-a", "--N", "2",
                         "--n", "1", "--m", "1", "--k", "1")
    assert code == 0
    assert doc["verified"] is True and doc["expected_h0"] == "4"


def test_verify_props(capsys):
    code, doc = run_json(capsys, "verify", "props", "--N", "2", "--n", "1",
                         "--m", "1")
    assert code == 0
    assert doc["verified"] is True
    capsys.readouterr()


def test_verify_grid(capsys):
    code, doc = run_json(capsys, "verify", "prop-3.1",
                         "--d", "5", "--n", "2")
    assert code == 0
    assert doc["verified"] is True and doc["failures"] == []
    code, doc = run_json(capsys, "verify", "prop-3.2",
                         "--d", "5", "--n", "2")
    assert code == 0 and doc["verified"] is True
    code, doc = run_json(capsys, "verify", "prop-3.3",
                         "--d", "5", "--n", "2", "--r", "1",
                         "--mode", "plus")
    assert code == 0
    assert doc["verified"] is True


def test_conjecture(capsys):
    code, doc = run_json(capsys, "conjecture", "wedge", "--N", "2", "--n", "1",
                         "--r", "1", "--m", "1", "--k", "2", "--degL", "1")
    assert code == 0
    assert doc["predicted"] == "6" and doc["computed"] == "6"
    assert doc["verified"] is True


def test_series(capsys):
    code, doc = run_json(capsys, "series", "dual", "--N", "2", "--degL", "2",
                         "--nmax", "2")
    assert code == 0
    assert doc["verified"] is True
    assert doc["resolution"][2][0] == "1"


def test_failed_claim_exits_1(capsys, monkeypatch):
    # exit-code plumbing: a claim that does not verify must return 1
    from quotcoh.quot import ConjectureReport

    def fake(data, which, ks, deg_ls):
        return ConjectureReport(which, tuple(ks), tuple(deg_ls), 1, 2, 9,
                                False)

    monkeypatch.setattr(cli, "check_conjecture", fake)
    code, doc = run_json(capsys, "conjecture", "wedge", "--N", "2", "--n", "1",
                         "--r", "1", "--m", "1", "--k", "1", "--degL", "1")
    assert code == 1 and doc["verified"] is False


def test_failed_verdicts_exit_1(capsys, monkeypatch):
    # run alone turns a command's verdict into the exit code: a failed
    # theorem or grid exits 1 and still prints its document
    real_theorem = cli.verify_theorem
    monkeypatch.setattr(cli, "verify_theorem", lambda *a: real_theorem(
        *a)._replace(verified=False))
    for argv in (("theorem-a", "--N", "2", "--n", "1", "--m", "1", "--k", "1"),
                 ("theorem-c", "--N", "3", "--n", "1", "--m", "1", "--ks",
                  "1,1", "--sides", "G2,G1")):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 1 and doc["verified"] is False, argv
    assert doc["all_zero"] is False

    # a plus-mode failure lists the chained degrees, then k
    real_dual = indices.verify_dual_vanishing
    calls = []

    def failing(d, n, r, lam, ks, mode, k):
        calls.append([str(x) for x in ks + (k,)])
        return real_dual(d, n, r, lam, ks, mode, k)._replace(ok=False)

    monkeypatch.setattr(indices, "verify_dual_vanishing", failing)
    code, doc = run_json(capsys, "verify", "prop-3.3", "--d", "8", "--n", "2",
                         "--r", "2", "--mode", "plus", "--max-size", "3")
    assert code == 1 and doc["verified"] is False
    assert calls and all(len(ks) == 2 for ks in calls)
    assert [row["ks"] for row in doc["failures"]] == calls


def test_internal_faults_exit_3(capsys, monkeypatch):
    # a failed consistency check inside the engine is not an input error
    def weyl_fault(data, sheaf):
        raise ArithmeticError("Weyl formula gave a non-integer for (1, 0)")

    def codim_fault(*args):
        raise AssertionError("codimension check failed")

    argv = ("cohomology", "--N", "2", "--n", "1", "--m", "1", "--functor",
            "wedge", "--k", "1")
    monkeypatch.setattr(cli, "quot_cohomology", weyl_fault)
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc == {"error": "internal: Weyl formula gave a non-integer for "
                            "(1, 0)"}
    monkeypatch.setattr(cli, "embedding_data", codim_fault)
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc == {"error": "internal: codimension check failed"}


def test_cauchy_identity_failure_exits_3(capsys, monkeypatch):
    # one Cauchy pair lost from the enumeration breaks the dimension sum
    real = schur.enumerate_in_box

    def drop_one(max_rows, max_cols, total):
        return real(max_rows, max_cols, total)[1:]

    monkeypatch.setattr(schur, "enumerate_in_box", drop_one)
    code, doc = run_json(capsys, "cauchy", "--ell", "2", "--rank-left", "3",
                         "--rank-right", "2")
    assert code == 3
    assert doc["error"].startswith("internal: Cauchy pieces of wedge^2")


def test_invalid_inputs_exit_2(capsys):
    code, doc = run_json(capsys, "lr", "--alpha", "1,2", "--beta", "1",
                         "--gamma", "2,1")
    assert code == 2 and "error" in doc
    code, doc = run_json(capsys, "chi", "--N", "2", "--n", "2", "--r", "0",
                         "--m", "1", "--functor", "wedge", "--k", "1")
    assert code == 2 and "m >= 2" in doc["error"]
    code, doc = run_json(capsys, "chi", "--N", "2", "--n", "1", "--m", "1",
                         "--functor", "wedge")
    assert code == 2 and "--k" in doc["error"]
    code, doc = run_json(capsys, "series", "dual", "--N", "1", "--degL", "2",
                         "--nmax", "2")
    assert code == 2 and "N >= 2" in doc["error"]
    code, doc = run_json(capsys, "series", "wedge", "--N", "2", "--degL", "2",
                         "--nmax", "-1")
    assert code == 2 and "n_max >= 0" in doc["error"]
    code, doc = run_json(capsys, "chi", "--N", "0", "--n", "1", "--m", "1",
                         "--functor", "wedge", "--k", "1")
    assert code == 2 and "N >= 1" in doc["error"]
    code, out = run_cli(capsys, "nonsense")
    assert code == 2
    # grids run in one process: there is no --jobs flag, and the error
    # names it rather than reading its value as the command
    code, doc = run_json(capsys, "--jobs", "2", "verify", "prop-3.1", "--d",
                         "6", "--n", "2")
    assert code == 2 and "--jobs" in doc["error"]
    code, doc = run_json(capsys, "index", "--lambda", "2,1", "--n", "-1")
    assert code == 2 and "n >= 0" in doc["error"]
    # inputs too large for a recursive walk or for an index fail at once
    for argv in (("lr", "--alpha", "1", "--beta", "1500", "--gamma", "1501"),
                 ("series", "wedge", "--N", "2", "--degL", str(10 ** 20),
                  "--nmax", str(10 ** 20))):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and "input too large" in doc["error"], argv
    # the box walk behind the Cauchy pairs needs no stack depth, so a tall
    # box gets its one pair
    code, doc = run_json(capsys, "cauchy", "--ell", "1500", "--rank-left",
                         "1", "--rank-right", "1500")
    assert code == 0 and len(doc["terms"]) == 1
    assert len(doc["terms"][0]["right"]) == 1500

    # a power takes --k, the dualized product --ks; the other kind's flags
    # are rejected, not ignored
    embedding = ("--N", "2", "--n", "1", "--m", "1")
    for argv, flag in (
            (("chi",) + embedding + ("--functor", "dual"), "--ks"),
            (("chi",) + embedding + ("--functor", "dual", "--k", "1"), "--k"),
            (("cohomology",) + embedding + ("--functor", "wedge", "--k", "1",
                                            "--ks", "1"), "--ks"),
            (("chi",) + embedding + ("--functor", "sym", "--k", "1",
                                     "--sides", "G2"), "--sides")):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and flag in doc["error"], argv
    embedding = ("--N", "3", "--n", "1", "--r", "1", "--m", "1")
    for argv, flag in ((("wedge", "--k", "1", "--degL", "1", "--ks", "5"),
                        "--ks"),
                       (("sym", "--k", "1", "--degL", "1", "--degLs", "1"),
                        "--degLs"),
                       (("dual", "--k", "1", "--degL", "1"), "--k"),
                       (("dual", "--ks", "1"), "--degLs")):
        code, doc = run_json(capsys, "conjecture", *argv, *embedding)
        assert code == 2 and flag in doc["error"], argv

    # each verify target takes exactly its own flags
    code, doc = run_json(capsys, "verify", "theorem-a", "--N", "2", "--n", "2",
                         "--m", "2")
    assert code == 2 and "--k" in doc["error"]
    code, doc = run_json(capsys, "verify", "prop-3.1", "--d", "6", "--n", "2",
                         "--k", "2")
    assert code == 2 and "--k" in doc["error"]
    code, doc = run_json(capsys, "verify", "prop-3.3", "--d", "7", "--n", "2")
    assert code == 2 and "--r" in doc["error"]
    code, doc = run_json(capsys, "verify", "prop-3.3", "--d", "7", "--n", "2",
                         "--r", "-1", "--mode", "plain")
    assert code == 2 and "plain mode needs r >= 0" in doc["error"]
    code, doc = run_json(capsys, "verify", "prop-3.1", "--n", "2")
    assert code == 2 and "--d" in doc["error"]
    # props holds its dualized product to Theorem C's hypotheses
    code, doc = run_json(capsys, "verify", "props", "--N", "2", "--n", "1",
                         "--m", "1", "--dual-ks", "1,1")
    assert code == 2 and "N-1" in doc["error"]

    # an empty or truncated grid is not a verified claim
    for argv in (("prop-3.1", "--d", "6", "--n", "2", "--max-size", "0"),
                 ("prop-3.1", "--d", "3", "--n", "2")):
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 2 and "no cases" in doc["error"]
    code, doc = run_json(capsys, "verify", "prop-3.2", "--d",
                         "6", "--n", "2", "--sym-cap", "-1")
    assert code == 2 and "--sym-cap" in doc["error"]
    for target, extra in (("prop-3.1", ()), ("prop-3.2", ()),
                          ("prop-3.3", ("--r", "1"))):
        code, doc = run_json(capsys, "verify", target, "--d", "7", "--n", "2",
                             *extra, "--max-size", "-1")
        assert code == 2 and "--max-size" in doc["error"], target

    # flags are never matched by prefix: --m is not --max-size, and --side
    # is not --sides
    code, doc = run_json(capsys, "verify", "prop-3.1", "--d", "6", "--n",
                         "2", "--m", "2")
    assert code == 2 and "--m" in doc["error"]
    code, doc = run_json(capsys, "verify", "theorem-c", "--N", "3", "--n",
                         "1", "--m", "1", "--ks", "1", "--side", "G1")
    assert code == 2 and "--side" in doc["error"]


def test_error_documents(capsys):
    # the exact document of invalid inputs whose check lives in the sheaf,
    # in the proposition hypotheses or in the grid's mode bound
    for cmd, error in (
            ("verify theorem-a --N 2 --n 2 --m 2 --k 3",
             "k=3 exceeds the rank 2 of the side-G2 quotient"),
            ("verify theorem-a --N 2 --n 2 --m 2 --k -1",
             "degrees must be nonnegative"),
            ("verify theorem-a --N 2 --n 2 --r 1 --m 2 --k 1",
             "per-term certification is stated for r = 0"),
            ("verify theorem-b --N 2 --n 2 --m 2 --k 3",
             "symmetric case needs deg L >= n >= k, got deg L = 2, n = 2, "
             "k = 3"),
            ("verify theorem-b --N 2 --n 2 --m 2 --k 1 --side G1",
             "symmetric case needs deg L >= n >= k, got deg L = 1, n = 2, "
             "k = 1"),
            ("verify theorem-b --N 2 --n 2 --m 2 --k -1",
             "degrees must be nonnegative"),
            ("verify theorem-c --N 3 --n 1 --r 1 --m 1 --ks 1",
             "per-term certification is stated for r = 0"),
            ("verify theorem-c --N 3 --n 1 --m 1 --ks 1,1 --sides G1",
             "each degree needs a side"),
            ("verify theorem-c --N 3 --n 1 --m 1 --ks 1 --sides G1,G2",
             "each degree needs a side"),
            ("chi --N 2 --n 1 --m 1 --functor dual --ks 1,1 --sides G2",
             "each degree needs a side"),
            ("conjecture wedge --N 2 --n 2 --r 1 --m 3 --k -1 --degL 3",
             "degrees must be nonnegative"),
            ("conjecture sym --N 2 --n 2 --r 1 --m 3 --k -1 --degL 3",
             "degrees must be nonnegative"),
            ("conjecture dual --N 3 --n 1 --r 1 --m 1 --ks -1 --degLs 1",
             "degrees must be nonnegative"),
            ("verify prop-3.3 --d 7 --n 2 --r -1 --mode plain",
             "plain mode needs r >= 0"),
            ("verify prop-3.3 --d 7 --n 2 --r 0 --mode plus",
             "plus mode needs r >= 1")):
        code, out = run_cli(capsys, *cmd.split())
        assert (code, out) == (2, json.dumps({"error": error}) + "\n"), cmd


def test_props_checks_every_sheaf_before_resolving(capsys):
    # the dualized product and the symmetric power come after the exterior
    # power, but an invalid one is rejected before anything is certified
    for flag, value in (("--dual-ks", "1,1"), ("--sym-k", "2")):
        code = cli.run(["verify", "props", "--N", "2", "--n", "1", "--m",
                        "1", flag, value])
        captured = capsys.readouterr()
        assert code == 2 and "error" in json.loads(captured.out)
        assert "certifying" not in captured.err, flag


def _readme_commands():
    """The quotcoh invocations of the README's command-line block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("quotcoh ")]


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_cli")


def _golden_name(argv) -> str:
    return "_".join(argv) + ".out"


def test_readme_commands_run(capsys):
    # Each command's stdout must match tests/golden_cli/ byte for byte;
    # `python tests/test_cli.py` rewrites that directory from the current
    # tree.  A command prints no document itself: it returns the document
    # and its verdict, and run alone emits it.
    commands = _readme_commands()
    assert len(commands) == 20
    assert sorted(os.listdir(GOLDEN_DIR)) == \
        sorted(_golden_name(argv) for argv in commands)
    for argv in commands:
        with open(os.path.join(GOLDEN_DIR, _golden_name(argv)), "rb") as fh:
            golden = fh.read()
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        json.loads(out)
        assert out.encode() == golden, argv

        args = cli.build_parser(argv[0]).parse_args(argv)
        result = args.func(args)
        assert capsys.readouterr().out == "", argv
        assert type(result) is tuple and len(result) == 2, argv
        doc, verified = result
        assert type(doc) is dict and verified is True, argv
        cli._emit(doc, args.format)
        assert capsys.readouterr().out.encode() == golden, argv


def test_golden_rewrite_keeps_the_tree_when_a_command_fails(tmp_path,
                                                            monkeypatch):
    (tmp_path / "old.out").write_text("old")
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda argv: 2 if argv[0] == "series"
                        else real_run(argv))
    assert "exited 2" in _write_golden(str(tmp_path))
    assert os.listdir(tmp_path) == ["old.out"]


def test_one_parser_serves_every_call(capsys):
    # run builds each command's parser once per process; calls of several
    # commands in sequence, a rejected one among them, print what each
    # prints on a newly built parser
    embedding = ("--N", "2", "--n", "2", "--r", "0", "--m", "2")
    calls = (
        ("chi",) + embedding + ("--functor", "wedge", "--k", "1"),
        ("chi",) + embedding + ("--functor", "wedge", "--kk", "1"),
        ("series", "wedge", "--N", "2", "--degL", "2", "--nmax", "2"),
        ("lr", "--alpha", "1", "--beta", "1", "--gamma", "2"),
        ("cohomology",) + embedding + ("--functor", "wedge", "--k", "1"),
    )

    def outcome(argv):
        code = cli.run(list(argv))
        return code, capsys.readouterr()

    for name in ("chi", "series", None):
        assert cli.build_parser(name) is cli.build_parser(name)
    in_sequence = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_sequence == fresh
    assert [code for code, _ in in_sequence] == [0, 2, 0, 0, 0]


def test_series_tables_share_no_stale_entries(capsys, cold_caches):
    # the engine's caches are keyed by value and outlive a table, so the
    # twelve benchmark tables run in one process, forward and then reversed,
    # must each print what they print from cold caches
    tables = [["series", kind, "--N", str(N), "--degL", str(deg_l),
               "--nmax", "2"]
              for N, deg_l in ((2, 2), (2, 3), (3, 2), (2, 4))
              for kind in ("wedge", "sym", "dual")]

    def out(argv):
        assert cli.run(argv) == 0
        return capsys.readouterr().out

    cold = []
    for argv in tables:
        for cached in cold_caches.values():
            cached.cache_clear()
        cold.append(out(argv))
    for cached in cold_caches.values():
        cached.cache_clear()
    assert [out(argv) for argv in tables] == cold
    assert [out(argv) for argv in tables[::-1]] == cold[::-1]


def test_a_command_builds_only_its_own_parser(monkeypatch):
    # the top-level parser and the series parser, with --format, kind, the
    # four flags of series and the two help flags; a verify call builds
    # the top-level, verify and target parsers, with --format, the three
    # flags of prop-3.1 and the three help flags
    built, added = [], []
    init = argparse.ArgumentParser.__init__
    add = argparse.ArgumentParser.add_argument

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        added.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add)
    cli.build_parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["series", "wedge", "--N", "2", "--degL", "2",
                        "--nmax", "2"])
    assert code == 0
    assert built == ["quotcoh", "quotcoh series"] and len(added) == 8, \
        (built, added)
    built.clear()
    added.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["verify", "prop-3.1", "--d", "6", "--n", "2"])
    assert code == 0
    assert built == ["quotcoh", "quotcoh verify", "quotcoh verify prop-3.1"]
    assert len(added) == 7, added


COMMANDS = "{lr,cauchy,bwb,index,chi,cohomology,verify,conjecture,series}"


def test_help_and_errors_name_every_command(capsys):
    # a help flag ahead of the command, no command or an unknown one gets
    # the answer of the parser of every command
    for argv in (["--help"], ["-h", "series"],
                 ["--format", "tsv", "--help"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out.startswith("usage: quotcoh [-h] [--format {json,tsv}]")
        assert COMMANDS in out, argv
        assert "generating-series comparison" in out, argv
    code, out = run_cli(capsys, "series", "--help")
    assert code == 0 and out.startswith("usage: quotcoh series")
    code, out = run_cli(capsys, "verify", "prop-3.3", "--help")
    assert code == 0 and "--r R" in out and "--mode {plain,plus}" in out

    code, doc = run_json(capsys)
    assert code == 2
    assert doc == {"error": "the following arguments are required: command"}
    code, doc = run_json(capsys, "bogus")
    choices = ", ".join(f"'{c}'" for c in COMMANDS[1:-1].split(","))
    assert code == 2 and doc == {"error": "argument command: invalid "
                                 f"choice: 'bogus' (choose from {choices})"}
    code, doc = run_json(capsys, "--format", "xml", "series", "wedge", "--N",
                         "2", "--degL", "2", "--nmax", "2")
    assert code == 2 and doc == {"error": "argument --format: invalid "
                                 "choice: 'xml' (choose from 'json', 'tsv')"}


SERIES = ("series", "wedge", "--N", "2", "--degL", "2", "--nmax", "2")
EMBEDDING = ("--N", "2", "--n", "1", "--m", "1")

# argv through both of run's paths: one pass by the parser of the command
# (or verify target) that opens argv, and the pre-parse for the rest
PARSE_CASES = [
    # help
    ("--help",), ("-h",), ("-h", "series"), ("--format", "tsv", "--help"),
    ("series", "--help"), ("series", "wedge", "-h"), ("lr", "-h"),
    ("verify", "--help"), ("verify", "prop-3.3", "--help"),
    ("verify", "-h", "props"), ("verify", "theorem-b", "--help"),
    # --format ahead of the command, and after it
    ("--format", "tsv") + SERIES, ("--format=tsv",) + SERIES,
    ("--format", "xml") + SERIES, ("--format", "json", "lr", "--alpha", "1",
                                  "--beta", "1", "--gamma", "2"),
    SERIES + ("--format", "tsv"), SERIES + ("--format=tsv",),
    # no command, an unknown one, or an unknown verify target
    (), ("bogus",), ("Series",), ("--format", "tsv"),
    ("--format", "tsv", "bogus"), ("verify",), ("verify", "bogus"),
    ("verify", "Props"),
    # unknown flags ahead of the command and after it
    ("--bogus",) + SERIES, ("--bogus=2",) + SERIES, ("-x",) + SERIES,
    SERIES + ("--bogus",), SERIES + ("--bogus", "1", "extra"),
    ("verify", "prop-3.1", "--d", "6", "--n", "2", "--m", "2"),
    # --, and a flag's value after =
    ("--",) + SERIES, ("series", "--") + SERIES[1:], SERIES + ("--",),
    ("series", "wedge", "--N=2", "--degL=2", "--nmax=2"),
    # negative numbers, an abbreviated flag, bad values, missing flags
    ("series", "wedge", "--N", "2", "--degL", "-1", "--nmax", "2"),
    ("lr", "--alpha", "-", "--beta", "2", "--gamma", "2"),
    ("bwb", "--d", "5", "--n", "2", "--quot", "0,-4", "--sub", "0,0,0"),
    ("series", "wedge", "--N", "2", "--deg", "2", "--nmax", "2"),
    ("series", "wedge", "--N", "x", "--degL", "2", "--nmax", "2"),
    ("series", "bogus", "--N", "2", "--degL", "2", "--nmax", "2"),
    ("series", "wedge"), ("lr", "--alpha", "1"),
    ("chi",) + EMBEDDING + ("--functor", "dual", "--k", "1"),
    ("chi",) + EMBEDDING + ("--functor", "bogus", "--k", "1"),
    # every command, and every verify target
    ("lr", "--alpha", "2,1", "--beta", "2,1", "--gamma", "3,2,1"),
    ("cauchy", "--ell", "2", "--rank-left", "3", "--rank-right", "2"),
    ("index", "--lambda", "7,6,3,2,2", "--n", "3", "--k", "1"),
    ("chi",) + EMBEDDING + ("--functor", "wedge", "--k", "1"),
    ("cohomology",) + EMBEDDING + ("--functor", "sym", "--k", "1"),
    ("conjecture", "wedge") + EMBEDDING + ("--k", "1", "--degL", "2"),
    SERIES, ("series", "dual", "--N", "3", "--degL", "2", "--nmax", "2"),
    ("verify", "theorem-a") + EMBEDDING + ("--k", "1"),
    ("verify", "theorem-b") + EMBEDDING + ("--k", "1", "--side", "G1"),
    ("verify", "theorem-c") + EMBEDDING + ("--ks", "1"),
    ("verify", "props") + EMBEDDING,
    ("verify", "prop-3.1", "--d", "6", "--n", "2"),
    ("verify", "prop-3.2", "--d", "6", "--n", "1", "--sym-cap", "1"),
    ("verify", "prop-3.3", "--d", "5", "--n", "1", "--r", "1", "--mode",
     "plus"),
    ("verify", "prop-3.3", "--d", "5", "--n", "1", "--r", "1", "--mode",
     "bogus"),
]


def _full_parser_outcome(capsys, argv):
    """Exit code, stdout and stderr of argv read by the parser of every
    command and target, and the namespace when it parses."""
    args = None
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
    else:
        try:
            doc, verified = args.func(args)
        except ValueError as exc:
            print(json.dumps({"error": str(exc)}))
            code = 2
        else:
            cli._emit(doc, args.format)
            code = 0 if verified else 1
    out = capsys.readouterr()
    return (code, out.out, out.err), args


def test_run_prints_what_the_full_parser_prints(capsys):
    # run parses an argv that opens with a command (and verify's target)
    # once, by that command's parser, and pre-parses any other; exit code,
    # stdout, stderr and namespace all match those of the full parser
    assert len(PARSE_CASES) >= 40
    for argv in map(list, PARSE_CASES):
        code = cli.run(argv)
        out = capsys.readouterr()
        want, args = _full_parser_outcome(capsys, argv)
        assert (code, out.out, out.err) == want, argv
        if args is not None:
            assert vars(cli._parse(argv)) == vars(args), argv
    # where the two differ by design: the full parser would read 2 as the
    # command, while the pre-parse sets the unknown flag aside
    code, doc = run_json(capsys, "--N", "2", *SERIES)
    assert code == 2 and doc == {"error": "unrecognized arguments: --N"}


def test_a_series_call_parses_once(monkeypatch):
    # one argparse pass, by the series parser; a verify target's call too
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted_parse(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        counted_parse)
    for argv, prog in ((SERIES, "quotcoh series"),
                       (("verify", "prop-3.1", "--d", "6", "--n", "2"),
                        "quotcoh verify prop-3.1")):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(list(argv)) == 0
        assert calls == [prog], argv


def test_byte_stable_output(capsys):
    _, first = run_cli(capsys, "cohomology", "--N", "2", "--n", "1", "--r",
                       "0", "--m", "1", "--functor", "sym", "--k", "1")
    _, second = run_cli(capsys, "cohomology", "--N", "2", "--n", "1", "--r",
                        "0", "--m", "1", "--functor", "sym", "--k", "1")
    assert first == second


def test_tsv_format(capsys):
    code, out = run_cli(capsys, "--format", "tsv", "lr", "--alpha", "1",
                        "--beta", "1", "--gamma", "1,1")
    assert code == 0
    assert out.strip() == "coefficient\t1"


def test_closed_stdout_exits_without_traceback():
    # the reader stops after one line, long before the output ends
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quotcoh.cli", "--format", "tsv", "cauchy",
         "--ell", "24", "--rank-left", "12", "--rank-right", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"ell\t24\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipe" not in err


def _write_golden(golden_dir):
    """Rewrite golden_dir from the README commands.  If one exits non-zero,
    leave the directory as it is and return a message naming it."""
    outputs = {}
    for argv in _readme_commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            return f"{shlex.join(argv)} exited {code}; {golden_dir} not written"
        outputs[_golden_name(argv)] = buf.getvalue()
    os.makedirs(golden_dir, exist_ok=True)
    for name in os.listdir(golden_dir):
        os.remove(os.path.join(golden_dir, name))
    for name, out in outputs.items():
        with open(os.path.join(golden_dir, name), "wb") as fh:
            fh.write(out.encode())
    return None


if __name__ == "__main__":
    sys.exit(_write_golden(GOLDEN_DIR))
