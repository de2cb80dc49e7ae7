"""The coxcent command line: JSON reports, exit codes, determinism.

Most tests call `cli.main` in this process.  The tests that need a real
process (hash seeds, a closed pipe, `__main__.run`'s exit codes) start
`python -m coxcent`.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from coxcent import cli

COX = [sys.executable, "-m", "coxcent"]


def run_process(*args):
    return subprocess.run(COX + list(args), capture_output=True, text=True)


def run(*args):
    """cli.main in this process, with the exit code and streams a process would give."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_json(*args):
    proc = run(*args)
    assert proc.stdout, f"no stdout; stderr: {proc.stderr}"
    return json.loads(proc.stdout), proc


def test_reduce_b2_example():
    doc, proc = run_json("reduce", "--type", "B2", "--word", "1 2 1 2 1")
    assert proc.returncode == 0
    assert doc["normal_form"] == "2 1 2"
    assert doc["length"] == 3
    assert doc["input"] == "1 2 1 2 1"


def test_reduce_ss_cancels():
    doc, proc = run_json("reduce", "--type", "A3", "--word", "1 1")
    assert proc.returncode == 0
    assert doc["normal_form"] == "" and doc["length"] == 0
    assert doc["right_descents"] == [] and doc["left_descents"] == []


def test_reduce_braid_move():
    doc, _ = run_json("reduce", "--type", "A2", "--word", "2 1 2")
    assert doc["normal_form"] == "1 2 1"
    assert doc["right_descents"] == [1, 2]


def test_reduce_bad_token_usage_error():
    proc = run("reduce", "--type", "A2", "--word", "1 x 2")
    assert proc.returncode == 2
    assert "'x'" in proc.stderr
    proc = run("reduce", "--type", "A2", "--word", "1 3")
    assert proc.returncode == 2
    assert "3" in proc.stderr


@pytest.mark.parametrize("word", ["1 \u0661", "1 \u00b3"],
                         ids=["arabic-indic-one", "superscript-three"])
def test_reduce_non_ascii_digit_is_usage_error(word):
    # str.isdigit() holds for these, and int() reads the first as 1
    proc = run("reduce", "--type", "A3", "--word", word)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "bad generator index" in proc.stderr


def test_involution_nf_examples():
    doc, proc = run_json("involution-nf", "--type", "A2", "--word", "1 2 1")
    assert proc.returncode == 0
    assert doc["I"] == [2] and doc["u"] == "1" and doc["rho_I_word"] == "2"
    assert doc["checks"] == {"minus_one_type": True, "conjugation_exact": True}

    doc, _ = run_json("involution-nf", "--type", "A3", "--word", "1 3")
    assert doc["I"] == [1, 3] and doc["u"] == ""

    doc, _ = run_json("involution-nf", "--type", "A3", "--word", "")
    assert doc["I"] == [] and doc["u"] == "" and doc["w"] == ""


def test_involution_nf_rejects_non_involution():
    doc, proc = run_json("involution-nf", "--type", "A2", "--word", "1 2")
    assert proc.returncode == 1
    assert doc["error"] == "not an involution"
    assert doc["square_normal_form"] == "2 1"  # (s1 s2)^2 = s2 s1


def test_centralizer_a3():
    doc, proc = run_json("centralizer", "--type", "A3", "--word", "1")
    assert proc.returncode == 0
    assert doc["centralizer_order"] == 4
    assert doc["brute_force_match"] is True
    assert doc["via"] == "conjugated-normalizer"
    assert doc["centralizer_elements"] == ["", "1", "3", "1 3"]


def test_centralizer_b2_central():
    doc, proc = run_json("centralizer", "--type", "B2", "--word", "1 2 1 2")
    assert proc.returncode == 0
    assert doc["centralizer_order"] == 8


def test_centralizer_cap_exceeded_still_emits_certificate():
    doc, proc = run_json(
        "centralizer", "--type", "Atilde2", "--word", "1", "--max-order", "2000"
    )
    assert proc.returncode == 1
    assert "cap" in doc["error"]
    assert doc["certificate"] == {"I": [1], "u": "", "steps": []}


def test_verify_classes_b2():
    doc, proc = run_json("verify", "--type", "B2", "--suite", "classes")
    assert proc.returncode == 0
    assert doc["instances_checked"] == 4 and doc["failures"] == []


def test_verify_main_a3_counts_involutions():
    doc, proc = run_json("verify", "--type", "A3", "--suite", "main")
    assert proc.returncode == 0
    assert doc["instances_checked"] == 10  # 6 transpositions + 3 doubles + identity
    assert doc["failures"] == []


def test_verify_prop_suites_small():
    doc, proc = run_json("verify", "--type", "B2", "--suite", "prop2")
    assert proc.returncode == 0 and doc["failures"] == []
    doc, proc = run_json("verify", "--type", "A3", "--suite", "prop1")
    assert proc.returncode == 0 and doc["failures"] == []
    assert doc["instances_checked"] == 10


def test_verify_cap_exceeded():
    proc = run_process("verify", "--type", "Atilde2", "--suite", "main", "--max-order", "500")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert "cap" in doc["error"]


@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_max_order_must_be_positive(value):
    proc = run("verify", "--type", "A3", "--suite", "main", "--max-order", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--max-order: must be a positive integer, got '{value}'" in proc.stderr


def test_matrix_file_input(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 3, 3], [3, 1, 0], [3, 0, 1]]}))
    doc, proc = run_json("reduce", "--matrix", str(path), "--word", "2 3 2")
    assert proc.returncode == 0
    assert doc["normal_form"] == "2 3 2"  # m_23 infinite: no braid shortening
    assert doc["system"] == {"rank": 3, "m": [[1, 3, 3], [3, 1, 0], [3, 0, 1]]}


def test_matrix_file_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 3], [4, 1]]}))
    proc = run("reduce", "--matrix", str(path), "--word", "1")
    assert proc.returncode == 2
    assert "symmetric" in proc.stderr


@pytest.mark.parametrize("doc,shown", [
    ({"rank": 3, "m": [[1, 3], [3, 1]]}, "matrix has 2 rows, declared rank 3"),
    ({"rank": 1, "m": [[1, 3], [3, 1]]}, "matrix has 2 rows, declared rank 1"),
], ids=["rank-over-rows", "rank-under-rows"])
def test_matrix_file_rank_must_match_its_rows(tmp_path, doc, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run("reduce", "--matrix", str(path), "--word", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert shown in proc.stderr


@pytest.mark.parametrize("doc,shown", [
    ({"rank": 2, "m": [[1, 3.9], [3.9, 1]]}, "3.9"),
    ({"rank": 2, "m": [[1, True], [True, 1]]}, "True"),
    ({"rank": 2, "m": [[1, "4"], ["4", 1]]}, "'4'"),
    ({"rank": True, "m": [[1]]}, "True"),
    ({"rank": 2.0, "m": [[1, 3], [3, 1]]}, "2.0"),
], ids=["float", "bool", "string", "bool-rank", "float-rank"])
def test_matrix_file_rejects_non_integers(tmp_path, doc, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run("reduce", "--matrix", str(path), "--word", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert shown in proc.stderr


def test_type_with_field_degree_over_limit_is_usage_error():
    # Q(2cos(pi/1000003)) has degree 500001; building it used to hang
    proc = run("reduce", "--type", "I2(1000003)", "--word", "1 2 1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "degree 500001" in proc.stderr


@pytest.mark.parametrize("name", ["I2(1)", "I2(0)"])
def test_type_dihedral_label_under_two_is_usage_error(name):
    proc = run("reduce", "--type", name, "--word", "1 2 1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "I2(m) needs m >= 2" in proc.stderr


def test_type_with_rank_over_limit_is_usage_error():
    proc = run("reduce", "--type", "A10000000000", "--word", "1 2 1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "rank 10000000000" in proc.stderr


@pytest.mark.parametrize("name,shown", [
    ("A" + "9" * 5000, "over the limit of 2000"),
    ("Atilde" + "9" * 5000, "over the limit of 2000"),
    ("I2(" + "7" * 5000 + ")", "m <= 4294967296"),
    ("I2(4294967297)", "m <= 4294967296"),
], ids=["A-5000-digits", "Atilde-5000-digits", "I2-5000-digits", "I2-over-label-limit"])
def test_type_with_thousands_of_digits_is_usage_error(name, shown):
    # the catalog counts a name's digits before int(), which Python refuses
    # past 4,300 digits with a message about its own setting
    proc = run("reduce", "--type", name, "--word", "1 2 1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert shown in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


@pytest.mark.parametrize("text", [
    '{"rank": 2, "m": [[1, %s], [%s, 1]]}' % ("7" * 5000, "7" * 5000),
    '{"rank": %s, "m": [[1]]}' % ("9" * 5000),
], ids=["label-5000-digits", "rank-5000-digits"])
def test_matrix_file_with_thousands_of_digits_is_usage_error(tmp_path, text):
    # the reader counts a number's digits before int(), which Python refuses
    # past 4,300 digits with a message about its own setting
    path = tmp_path / "huge.json"
    path.write_text(text)
    proc = run("reduce", "--matrix", str(path), "--word", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "5000 digits" in proc.stderr and "over the limit of 4294967296" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_type_with_thousands_of_leading_zeros_is_read():
    doc, proc = run_json("reduce", "--type", "A" + "0" * 5000 + "3", "--word", "1 2 1")
    assert proc.returncode == 0
    expected, _ = run_json("reduce", "--type", "A3", "--word", "1 2 1")
    assert {**doc, "system": "A3"} == expected


@pytest.mark.parametrize("args", [
    ("reduce", "--type", "A3", "--word", "1 " + "7" * 5000),
    ("verify", "--type", "A3", "--suite", "main", "--max-order", "7" * 5000),
], ids=["word-5000-digits", "max-order-5000-digits"])
def test_numbers_with_thousands_of_digits_are_usage_errors(args):
    # a word's indices and --max-order have their digits counted before
    # int(), which Python refuses past 4,300 digits with a message about its
    # own setting
    proc = run(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"5000 digits is over the limit of {sys.maxsize}" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("reduce", "--type", "A3", "--word", "0" * 5000 + "2 1"),
    ("verify", "--type", "A3", "--suite", "main", "--max-order", "0" * 5000 + "24"),
], ids=["word", "max-order"])
def test_thousands_of_leading_zeros_are_read(args):
    doc, proc = run_json(*args)
    assert proc.returncode == 0
    expected, _ = run_json(*(arg.lstrip("0") for arg in args))
    assert doc == expected


def test_matrix_file_with_field_degree_over_limit(tmp_path):
    # lcm(7, 11, 13) = 1001: the field would have degree 360
    path = tmp_path / "deg360.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 7, 11], [7, 1, 13], [11, 13, 1]]}))
    proc = run("reduce", "--matrix", str(path), "--word", "1 2 3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "degree 360" in proc.stderr


def test_json_flag_compact_and_deterministic():
    args = ("verify", "--type", "B3", "--suite", "main", "--json")
    first = run_process(*args)
    second = run_process(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 1  # single compact line
    doc = json.loads(first.stdout)
    assert doc["failures"] == []


def test_missing_system_is_usage_error():
    proc = run_process("reduce", "--word", "1")
    assert proc.returncode == 2


# the input each command takes besides its system, with a valid value
OWN_INPUT = {"reduce": ("--word", "1"), "involution-nf": ("--word", "1"),
             "centralizer": ("--word", "1"), "verify": ("--suite", "classes")}


@pytest.mark.parametrize("command", OWN_INPUT)
def test_command_input_contract(command):
    own = OWN_INPUT[command]
    other = ("--suite", "classes") if own[0] == "--word" else ("--word", "1")
    with_word = own if own[0] == "--word" else ()
    for argv, option in (
        ((command, "--type", "A2"), own[0]),
        ((command, "--type", "A2") + own + other, other[0]),
        ((command, "--type", "A2") + with_word + ("--suite", "nope"), "--suite"),
    ):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert option in proc.stderr, argv


@pytest.mark.parametrize("argv", [(), ("--type", "A2", "--word", "1"),
                                  ("frobnicate", "--type", "A2", "--word", "1")],
                         ids=["none", "options-only", "unknown"])
def test_missing_or_unknown_command_is_usage_error(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "command" in proc.stderr


def test_help_lists_the_commands():
    proc = run("--help")
    assert proc.returncode == 0
    for command in OWN_INPUT:
        assert command in proc.stdout


def test_help_and_usage_bytes_do_not_depend_on_the_terminal(monkeypatch):
    # argparse sizes its text to COLUMNS, else to the terminal, else to 80
    # columns; the parser fixes the width that argparse uses with no terminal
    seen = set()
    for columns in ("40", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        seen.add((run("--help").stdout, run("verify", "--type", "A3").stderr))
    assert len(seen) == 1
    help_text, usage = seen.pop()
    assert "usage: coxcent" in usage
    # a process with its stdout on a pipe and no COLUMNS has no terminal to read
    assert run_process("--help").stdout == help_text


def test_closed_stdout_is_not_a_crash():
    # the reader closes its end before the CLI writes, like `coxcent ... | head -c 10`
    proc = subprocess.Popen(COX + ["reduce", "--type", "A2", "--word", "1 2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""
