import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from leafspace import checkers as ck
from leafspace.cli import build_parser, main
from leafspace.core import DEPTH_LIMIT
from leafspace.formats import parse

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run(*argv):
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


def test_reader_closing_the_pipe_early_is_no_error():
    # like `leafspace loci ... | head -2`: far more output than a pipe buffers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")))))
    for extra in ((), ("--json",)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "leafspace.cli", "loci", "--gallery", "COMB",
             "--depth", "2048", *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b"" and head[0].startswith((b"loci COMB", b"{"))


def test_validate_ok():
    code, out = run("validate", "--gallery", "SWAP", "--depth", "3")
    assert code == 0 and "valid: yes" in out


def test_expand_counts():
    code, out = run("expand", "--gallery", "SWAP", "--depth", "1")
    assert code == 0
    assert "vertex cells: 2" in out and "edge cells:   9" in out
    assert "truncated ends: 6" in out
    code, out = run("expand", "--gallery", "LINE", "--depth", str(DEPTH_LIMIT))
    assert code == 0
    assert out.splitlines()[1:4] == [f"vertex cells: {2 * DEPTH_LIMIT + 1}",
                                     f"edge cells:   {2 * DEPTH_LIMIT}", "truncated ends: 2"]


def test_loci_listing():
    code, out = run("loci", "--gallery", "ZIGZAG", "--depth", "1")
    assert code == 0
    assert out.count("positive") >= 3 and out.count("negative") == 3
    assert run("loci", "--gallery", "LINE", "--depth", "2") == (
        0, "loci LINE depth=2  branching=none*\n  (none)\n")


def test_compare_and_path():
    code, out = run("compare", "--gallery", "YPLUS", "--x", "p[0]:1/2", "--y", "q[0]:1/2")
    assert code == 0 and "incomparable" in out
    code, out = run("path", "--gallery", "ZIGZAG", "--depth", "3",
                    "--from", "E[0]:1/2", "--to", "E[1]:1/2")
    assert code == 0 and "length 3" in out and "junction 2" in out


def test_classify_words():
    code, out = run("classify", "--gallery", "ZIGZAG", "--word", "h", "--depth", "3")
    assert code == 0 and "neither-candidate" in out
    code, out = run("classify", "--gallery", "SWAP", "--word", "g", "--depth", "4")
    assert code == 0 and "  pos transversable:   yes (s[-4]:1/2)" in out.splitlines()


def test_stab_ball():
    code, out = run("stab", "--gallery", "SWAP", "--word-len", "6")
    assert code == 0
    assert "size: 13" in out and "cyclic at this radius: yes" in out


def test_check_single_pass():
    code, out = run("check", "check_return", "--gallery", "SWAP",
                    "--word", "g", "--point", "ra[0]:1/2", "--k", "2")
    assert code == 0 and "PASS" in out


def test_negative_bounds_are_refused(capsys):
    code, out = run("stab", "--gallery", "SWAP", "--word-len", "-3")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: radius must be non-negative, got -3\n"
    code, out = run("check", "check_faithfulness", "--gallery", "SWAP", "--word-len", "-2")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: max_word_len must be non-negative, got -2\n"
    code, out = run("check", "check_odd_path", "--gallery", "ZIGZAG", "--word", "h",
                    "--point", "E[0]:1/2", "--k-max", "-2")
    assert code == 0
    assert out == "PRECONDITION-FAILED check_odd_path\n           note: k_max must be at least 1\n"
    code, out = run("check", "check_odd_path", "--gallery", "ZIGZAG", "--word", "h",
                    "--point", "E[0]:1/2", "--k-max", "1025")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: k_max must be at most 1024, got 1025\n"
    # the suite gives check_odd_path k_max = min(4, word-len): skipped at word-len 0
    code, out = run("suite", "--gallery", "ZIGZAG", "--word-len", "0")
    assert code == 0 and "PRECONDITION-FAILED check_odd_path" in out
    assert out.endswith("4 pass, 0 violations, 0 truncated, 6 skipped\n")


def test_word_lengths_above_the_letter_limit_are_refused(capsys):
    from leafspace.action import WORD_LETTER_LIMIT

    over = str(WORD_LETTER_LIMIT + 1)
    for argv in (("suite", "--gallery", "SWAP"), ("stab", "--gallery", "SWAP"),
                 ("check", "check_faithfulness", "--gallery", "SWAP")):
        code, out = run(*argv, "--word-len", over)
        assert code == 2 and out == "", argv
        assert capsys.readouterr().err == (
            f"error: word of {over} letters exceeds the limit of {WORD_LETTER_LIMIT}\n")


def test_check_precondition_warns_but_exits_zero():
    code, out = run("check", "check_faithfulness", "--gallery", "LINE")
    assert code == 0 and "PRECONDITION-FAILED" in out
    code, out = run("check", "check_return", "--gallery", "SWAP", "--word", "g",
                    "--point", "ra[0]:1/2", "--k", "1")
    assert code == 0
    assert out == "PRECONDITION-FAILED check_return\n           note: k must exceed 1\n"


def test_suite_counts_a_truncated_row(monkeypatch):
    # no gallery window makes a checker's worst verdict Truncated, so one
    # registered checker is wrapped to answer Truncated on the word g
    real = ck.check_connected_open

    def truncated_on_g(spec, word, depth):
        report = real(spec, word, depth)
        return report._replace(verdict=ck.TRUNCATED) if str(word) == "g" else report

    monkeypatch.setattr(ck, "check_connected_open", truncated_on_g)
    argv = ("suite", "--gallery", "SWAP", "--depth", "4", "--word-len", "6")
    code, out = run(*argv)
    assert code == 0
    assert ("\nTRUNCATED  check_connected_open  word=g yes_cells=9\n"
            "           note: sweep touched truncated ends\n"
            "           note: instances=2\n") in out
    assert out.endswith("\nsuite: 10 checkers, 8 pass, 0 violations, 1 truncated, 1 skipped\n")
    code, out = run(*argv, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["violations"] == 0 and payload["warnings"] == 2
    row = next(r for r in payload["reports"] if r["check"] == "check_connected_open")
    assert row["verdict"] == "truncated" and row["instances"] == 2


def test_suite_exit_codes():
    code, out = run("suite", "--gallery", "SWAP", "--depth", "4", "--word-len", "6")
    assert code == 0
    assert "0 violations" in out


def test_gallery_emits_document():
    code, out = run("gallery", "SWAP")
    assert code == 0
    spec = parse(out)
    assert "g" in spec.generators


def test_random_document_deterministic():
    code_a, out_a = run("random", "--seed", "42")
    code_b, out_b = run("random", "--seed", "42")
    assert code_a == code_b == 0 and out_a == out_b
    parse(out_a)


def test_usage_errors_exit_two(capsys):
    code, _ = run("compare", "--x", "a[0]", "--y", "b[0]")          # no model
    assert code == 2
    code, _ = run("path", "--gallery", "YPLUS", "--from", "wat", "--to", "q[0]:1/2")
    assert code == 2
    code, _ = run("check", "nonsense", "--gallery", "SWAP")
    assert code == 2
    capsys.readouterr()
    code, _ = run("compare", "--gallery", "SWAP", "--x", "ra[0]:1/0", "--y", "rb[0]:1/2")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot parse point 'ra[0]:1/0'")
    code, out = run("check", "check_connected_open", "--gallery", "SWAP", "--word", "g^")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: cannot parse word token 'g^'\n"
    code, out = run("check", "check_connected_open", "--gallery", "SWAP",
                    "--word", "g^" + "1" * 30)          # refused before any letter is built
    assert code == 2 and out == ""
    assert "letters exceeds the limit" in capsys.readouterr().err
    for depth in (DEPTH_LIMIT + 1, 10 ** 8):           # refused before any cell is built
        code, out = run("expand", "--gallery", "LINE", "--depth", str(depth))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: depth {depth} exceeds the limit of {DEPTH_LIMIT}\n")


def test_one_parser_answers_like_fresh_ones(capsys):
    # main shares one parser across calls; a usage error on it leaves later
    # calls answering as a freshly built parser would
    calls = [("suite", "--gallery", "SWAP", "--depth", "2", "--word-len", "3"),
             ("suite", "--gallery", "SWAP", "--depth", "deep"),
             ("compare", "--gallery", "YPLUS", "--x", "p[0]:1/2", "--y", "q[0]:1/2")]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append((run(*argv), capsys.readouterr().err))
    build_parser.cache_clear()
    shared = [(run(*argv), capsys.readouterr().err) for argv in calls]
    assert build_parser() is build_parser()
    assert shared == fresh
    assert [code for (code, _), _ in shared] == [0, 2, 0]


def test_json_reports_parse():
    code, out = run("suite", "--gallery", "ZIGZAG", "--depth", "3",
                    "--word-len", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert {r["check"] for r in payload["reports"]} >= {"check_faithfulness"}
    code, out = run("loci", "--gallery", "SWAP", "--json")
    assert json.loads(out)["loci"][0]["sign"] == "positive"


def test_report_determinism():
    first = run("suite", "--gallery", "COMB", "--depth", "3", "--word-len", "4")
    second = run("suite", "--gallery", "COMB", "--depth", "3", "--word-len", "4")
    assert first == second


def test_violation_exits_one(tmp_path):
    # a valid model no foliation group realizes: the fix-propagation
    # screen reports a violation and the exit code says so
    from leafspace.formats import emit
    from conftest import build_tripod

    doc = tmp_path / "tripod.leafspace"
    doc.write_text(emit(build_tripod()), encoding="utf-8")
    code, out = run("check", "check_fix_propagation", "--spec", str(doc), "--depth", "2")
    assert code == 1 and "VIOLATION" in out
    code, out = run("suite", "--spec", str(doc), "--depth", "2", "--word-len", "4")
    assert code == 1 and "violations" in out


def test_two_generator_model_from_document(tmp_path):
    # SWAP+k: Z^2 acts, so the radius-8 ball lists its 145 elements, one word each
    from leafspace.formats import emit
    from conftest import build_swap_k

    doc = tmp_path / "swap_k.leafspace"
    doc.write_text(emit(build_swap_k()), encoding="utf-8")
    code, out = run("stab", "--spec", str(doc), "--depth", "4", "--word-len", "8")
    assert code == 0
    assert "size: 145" in out and "cyclic at this radius: no" in out
    assert "acts on the locus nontrivially: yes" in out
    code, out = run("check", "check_fix_propagation", "--spec", str(doc),
                    "--depth", "4", "--word-len", "8")
    assert code == 0
    assert re.search(r"^PASS +check_fix_propagation +ball_size=145$", out, re.M)


def test_stab_no_loci_is_empty_answer():
    code, out = run("stab", "--gallery", "LINE")
    assert code == 0 and "no branch loci" in out
    code, out = run("check", "check_fix_propagation", "--gallery", "LINE")
    assert code == 0 and "SKIP" in out


def test_checker_registry():
    # every entry names a public checker whose keyword arguments are the
    # entry's keys, and every option it names exists on `check`
    parser = build_parser()
    for name, options in ck.CHECKERS.items():
        fn = getattr(ck, name)
        assert not name.startswith("_") and inspect.isfunction(fn)
        assert set(inspect.signature(fn).parameters) - {"spec", "depth"} == set(options)
        for option in options.values():
            parser.parse_args(["check", name, option, "1"])
    assert ck.SCREENS <= set(ck.CHECKERS)
    for golden in sorted(GOLDEN.glob("suite_*.txt")):
        listed = re.findall(r"^[A-Z-]+ +(\w+)", golden.read_text(encoding="utf-8"), re.M)
        assert listed == list(ck.CHECKERS), golden.name


def test_nonrealizable_fix_propagation_golden(monkeypatch):
    # f fixes a[0] and exchanges b[0] and c[0], members of one finite locus:
    # a partial fix no realizable model has, certified here without the checker
    from leafspace.core import vertex_point

    here = GOLDEN / "nonrealizable"
    spec = parse((here / "fix_propagation.leafspace").read_text(encoding="utf-8"))
    f = spec.generators["f"]
    assert f.point(vertex_point("a")) == vertex_point("a")
    assert f.point(vertex_point("b")) == vertex_point("c")
    assert [locus.members for locus in spec.window(4).loci] == [(("a", 0), ("b", 0), ("c", 0))]
    # a report names its document by the file's base name, so the bytes do
    # not depend on the working directory
    for cwd, doc in ((here, "fix_propagation.leafspace"),
                     (GOLDEN.parent.parent, "tests/golden/nonrealizable/fix_propagation.leafspace")):
        monkeypatch.chdir(cwd)
        argv = ("suite", "--spec", doc, "--depth", "4")
        assert run("validate", *argv[1:]) == (0, "validate fix_propagation.leafspace depth=4\n"
                                                  "valid: yes (0 violations)\n")
        for extra, suffix in (((), "txt"), (("--json",), "json")):
            golden = (here / f"fix_propagation.{suffix}").read_text(encoding="utf-8")
            assert run(*argv, *extra) == (1, golden), (cwd, suffix)
    text = (here / "fix_propagation.txt").read_text(encoding="utf-8")
    assert "VIOLATION  check_fix_propagation  fixes=a[0] locus_size=3 word=f\n" in text
    assert text.endswith("suite: 10 checkers, 8 pass, 1 violations, 0 truncated, 1 skipped\n")


def test_check_from_to_options():
    code, out = run("check", "check_path_in_comparable_set", "--gallery", "COMB",
                    "--word", "u", "--from", "a[-4]", "--to", "a[-2]")
    assert code == 0 and out.startswith("PASS       check_path_in_comparable_set")


def test_check_pos_neg_options():
    code, out = run("check", "check_intermediate_fixed", "--gallery", "SWAP",
                    "--word", "g^2", "--pos", "s[0]:1/2", "--neg", "ra[0]:1/2")
    assert code == 0 and "PASS" in out and "witness=a[0]" in out


def test_check_missing_option_exits_two(capsys):
    code, out = run("check", "check_path_in_comparable_set", "--gallery", "COMB",
                    "--word", "u", "--to", "a[-2]")
    assert code == 2 and out == ""
    assert "--from is required for this checker" in capsys.readouterr().err


def test_lower_bound_unknown_or_outside_point(capsys):
    # a family the model lacks is a typed error; a known family beyond the
    # window makes the bound leave the window
    code, out = run("check", "check_lower_bound", "--gallery", "SWAP", "--depth", "2",
                    "--word", "g", "--from", "a[0]", "--to", "nope[0]")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: nope[0] lies in no family of the model\n"
    code, out = run("check", "check_lower_bound", "--gallery", "SWAP", "--depth", "2",
                    "--word", "g", "--from", "a[0]", "--to", "ra[9]:1/2")
    assert code == 0
    assert out == ("TRUNCATED  check_lower_bound\n"
                   "           note: bound leaves the window\n")


# parses, but the limit member b has no germ on its high side
INVALID_WINDOW = (
    "leafspace/1\nfamily a vertex unit\nfamily b vertex unit\nfamily p edge unit\n"
    "family s edge unit\nend p low vertex a 0\nend p high open\nend s low open\n"
    "end s high limit a 0 b 0\ngen g a a 0\ngen g b b 0\ngen g p p 0\ngen g s s 0\n")


REJECTED_DOCUMENTS = {
    "parse-error": "leafspace/1\nfamily a vertex sometimes\n",
    "semantic-error": "leafspace/1\nfamily a vertex unit\nfamily a vertex unit\n",
    "unknown-target-beside-a-generator":
        "leafspace/1\nfamily a vertex unit\nfamily e edge unit\nend e low vertex ghost 0\n"
        "end e high open\ngen g a a 0\ngen g e e 0\n",
    "invalid-window": INVALID_WINDOW,
}
MODEL_COMMANDS = {
    "validate": ("validate",),
    "loci": ("loci",),
    "classify": ("classify", "--word", "g"),
    "stab": ("stab",),
    "check": ("check", "check_connected_open", "--word", "g"),
    "compare": ("compare", "--x", "p[0]:1/2", "--y", "s[0]:1/2"),
    "path": ("path", "--from", "p[0]:1/2", "--to", "s[0]:1/2"),
    # a point compared with itself, or with its image under a generator
    # that fixes it, is still read on a window that must be valid
    "check_return": ("check", "check_return", "--word", "g", "--point", "p[0]:1/2"),
    "check_odd_path": ("check", "check_odd_path", "--word", "g", "--point", "p[0]:1/2"),
    "check_intermediate_fixed": ("check", "check_intermediate_fixed", "--word", "g",
                                 "--pos", "p[0]:1/2", "--neg", "s[0]:1/2"),
    "compare-equal": ("compare", "--x", "p[0]:1/2", "--y", "p[0]:1/2"),
    "suite": ("suite",),
}


@pytest.mark.parametrize("document, command", [
    pytest.param(doc, cmd, id=name if key == "validate" else f"{name}-{key}")
    for name, doc in REJECTED_DOCUMENTS.items() for key, cmd in MODEL_COMMANDS.items()])
def test_rejected_document_exits_one(tmp_path, capsys, document, command):
    doc = tmp_path / "bad.leafspace"
    doc.write_text(document, encoding="utf-8")
    code, out = run(*command, "--spec", str(doc))
    err = capsys.readouterr().err
    assert code == 1
    if document == INVALID_WINDOW and command == ("validate",):     # a report, not an error
        assert "valid: no" in out and err == ""
    elif document == INVALID_WINDOW and command == ("suite",):
        assert out.endswith("\nmodel invalid (1 violations); suite aborted\n") and err == ""
    else:
        assert out == "" and err.startswith("error: invalid model: ")


def test_path_on_disconnected_window_is_truncated(tmp_path):
    # the edge from v[0] to v[3] leaves the depth-2 window, so v[1] and v[2]
    # lie in different components: no route, reported as TRUNCATED, not an error
    doc = tmp_path / "split.leafspace"
    doc.write_text("leafspace/1\nfamily e edge chain\nfamily v vertex chain\n"
                   "end e low vertex v 0\nend e high vertex v 3\n", encoding="utf-8")
    argv = ("path", "--spec", str(doc), "--depth", "2", "--from", "v[1]", "--to", "v[2]")
    reason = "no route from v[1] to v[2] inside the depth-2 window"
    assert run(*argv) == (0, f"path v[1] -> v[2]: TRUNCATED ({reason})\n")
    code, out = run(*argv, "--json")
    assert code == 0
    assert json.loads(out) == {"model": "split.leafspace", "reason": reason, "truncated": True}


def test_locus_out_of_range_exits_two(capsys):
    for argv in (("stab",), ("check", "check_fix_propagation")):
        assert run(*argv, "--gallery", "SWAP", "--locus", "3") == (2, "")
        assert capsys.readouterr().err == "error: --locus must be in 0..0\n"


def test_unreadable_spec_exits_two(tmp_path, capsys):
    code, out = run("suite", "--spec", str(tmp_path / "missing.leafspace"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def _readme_block(heading, fence=""):
    """The first fenced block after a README heading."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_exit_zero(tmp_path):
    code, document = run("gallery", "SWAP")
    assert code == 0
    doc = tmp_path / "my.leafspace"
    doc.write_text(document, encoding="utf-8")
    commands = []
    for line in _readme_block("Command line").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "leafspace":
            commands.append(argv[1:])
    assert len(commands) == 10
    for argv in commands:
        argv = [str(doc) if arg == "my.leafspace" else arg for arg in argv]
        assert run(*argv)[0] == 0, argv


def test_readme_library_snippet_runs():
    # the snippet's import line ends in a literal "..."; import the names it lists
    snippet = _readme_block("Library surface", "python")
    assert ", ...)" in snippet
    exec(snippet.replace(", ...)", ")"), {})
