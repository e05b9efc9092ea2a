import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from planarops.cli import build_parser, main, parse_generator, parse_shape
from planarops.diagrams import INNER, DiagramError, ShapeClass


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_shape():
    assert parse_shape("T4").kind == "tree"
    assert parse_shape("M2,3").params == (2, 3)
    assert parse_shape("I1,2") == ShapeClass(INNER, (1, 2))


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "T4", "0")
    assert code == 0
    assert "# 5 diagrams" in out
    code, out = run(capsys, "enumerate", "I1,1", "0", "--format", "json")
    assert len(json.loads(out)) == 6
    # the corolla I5,0 has degree 5: above it the answer is empty
    code, out = run(capsys, "enumerate", "I5,0", "6")
    assert code == 0
    assert out == "# 0 diagrams\n"


def test_boundary_text(capsys):
    code, out = run(capsys, "boundary", "c", "(( * * * ) ; id ; [])")
    assert code == 0
    assert out.count("+1 *") == 2


def test_boundary_q_with_metric(capsys):
    code, out = run(capsys, "boundary", "q",
                    "((( * * ) *) ; 1 2 3 ; [1-2] ; metric:[1-2])")
    assert code == 0
    assert out.count("*") >= 2


def test_compose(capsys):
    code, out = run(capsys, "compose", "c", "((* *) ; id ; [])", "1",
                    "((* *) ; id ; [])")
    assert code == 0
    assert "-1 * (((* *) *) ; 1 2 3 ; [1-2])" in out


def test_minmax(capsys):
    code, out = run(capsys, "minmax", "(* * * *)")
    assert "min: (((* *) *) *)" in out
    assert "max: (* (* (* *)))" in out


def test_leq_exit_codes(capsys):
    code, _ = run(capsys, "leq", "((* *) *)", "(* (* *))")
    assert code == 0
    code, _ = run(capsys, "leq", "(* (* *))", "((* *) *)")
    assert code == 1


def test_qmap_pmap_roundtrip(capsys):
    code, out = run(capsys, "qmap", "((* * *) ; id ; [])", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 2
    code, out = run(capsys, "pmap", "((* *) ; id ; [] ; metric:[])")
    assert code == 0
    assert "(* *)" in out


def test_diagonal(capsys):
    code, out = run(capsys, "diagonal", "(<| ; * * ; | ; > ; id ; [])",
                    "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 6
    code, out = run(capsys, "diagonal", "(<| ; * * ; | ; > ; id ; [])",
                    "--mod-higher")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_homology(capsys):
    code, out = run(capsys, "homology", "I1,1", "--format", "json")
    data = json.loads(out)
    assert data["f_vector"] == [6, 6, 1]
    assert data["betti"] == [1, 0, 0]
    assert data["critical"] == [1, 0, 0]
    assert data["acyclic_over_z"] is True
    code, out = run(capsys, "homology", "I2,0", "--q")
    assert "(11, 15, 5)" in out


@pytest.mark.parametrize("argv", [["homology", "T10"],
                                  ["homology", "T10", "--dot"],
                                  ["homology", "I4,4", "--q", "--dot"]])
def test_homology_size_cap_holds_on_every_path(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: shape class exceeds the size cap" in captured.err


def _right_comb(n):
    return "(* " * (n - 2) + "(* *)" + ")" * (n - 2)


def _corolla(n, metric=False):
    return "((%s) ; id ; []%s)" % (" ".join("*" * n), " ; metric:[]" * metric)


# each of these once ran past a minute
@pytest.mark.parametrize("argv", [
    ["enumerate", "T30", "1"], ["enumerate", "I8,8", "1"],
    ["enumerate", "T9", "0", "--format", "json"],
    ["qmap", _corolla(12)], ["qmap", _corolla(9)],
    ["pmap", _corolla(12, metric=True)], ["diagonal", _corolla(12)],
    ["minmax", _right_comb(20), "--dot"],
    ["leq", _right_comb(20), _right_comb(20), "--dot"],
    ["leq", _right_comb(20), _right_comb(20)],
])
def test_size_cap_holds_on_every_class_builder(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: shape class exceeds the size cap of 8 leaves" \
        in captured.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "T8", "6"], ["qmap", "(%s ; id)" % _right_comb(8)],
    ["pmap", _corolla(8, metric=True)], ["minmax", _right_comb(8), "--dot"],
    ["leq", _right_comb(8), _right_comb(8), "--dot"],
    ["leq", _right_comb(8), _right_comb(8)],
])
def test_eight_leaves_still_answer(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and out


def test_diagonal_lets_eight_leaves_through_the_cap(capsys):
    # the diagonal of an 8-leaf corolla takes seconds; a binary input gets
    # past the cap and is refused by the corolla check that follows it
    assert main(["diagonal", "(%s ; id)" % _right_comb(8)]) == 2
    assert "expects a corolla" in capsys.readouterr().err


def test_minmax_dot(capsys):
    code, out = run(capsys, "minmax", "(* * *)", "--dot")
    assert out.startswith("digraph")
    assert "move 1" in out


@pytest.mark.parametrize("argv", [
    ["minmax", "(* * *)"], ["leq", "((* *) *)", "(* (* *))"],
    ["homology", "I2,0"], ["homology", "I2,0", "--q"],
])
def test_dot_refuses_json(capsys, argv):
    assert main(argv + ["--dot", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: --dot prints DOT; it takes no --format json\n"


def test_tensor_ainf(capsys, tmp_path):
    from pathlib import Path
    fx = Path(__file__).resolve().parent.parent / "src/planarops/fixtures"
    code, out = run(capsys, "tensor-ainf", str(fx / "frobenius.json"),
                    str(fx / "two_term.json"), "--arity", "3")
    assert code == 0
    assert "holds" in out


def test_error_reporting(capsys):
    code = main(["boundary", "c", "(not a diagram"])
    assert code == 2


def test_determinism(capsys):
    one = run(capsys, "qmap", "((* * * *) ; id ; [])")[1]
    two = run(capsys, "qmap", "((* * * *) ; id ; [])")[1]
    assert one == two


# `main` builds the argparse front end once per process.  The parser binds
# the `cmd_*` functions when it is first built, so a test that monkeypatched
# one would not reach `main`; none does.

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call; an argparse usage
    error leaves through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_shared_parser_answers_each_call_alone(capsys):
    query = ("boundary", "c", "((* * *) ; 2 1 3 ; [])")
    sequence = [query,
                ("boundary", "c", "(not a diagram"),
                ("boundary", "x", "((* *) ; id ; [])"),
                query]
    first = [_call(capsys, argv) for argv in sequence]
    assert first[0] == first[3]
    assert first + first == [_call(capsys, argv) for argv in sequence * 2]
    (code, out, err), (bad, _out, bad_err), (usage, _o, usage_err), _ = first
    assert code == 0 and out.count(" * ") == 2 and err == ""
    assert bad == 2 and bad_err.startswith("error: ")
    assert usage == ("SystemExit", 2)
    assert usage_err.startswith("usage: planarops boundary")


def test_no_option_leaks_into_the_next_call(capsys):
    argv = ["minmax", "(* * *)"]
    code, out, _err = _call(capsys, argv + ["--format", "json"])
    assert code == 0 and json.loads(out) == {"min": "((* *) *)",
                                             "max": "(* (* *))"}
    code, out, _err = _call(capsys, argv)
    assert code == 0 and out == "min: ((* *) *)\nmax: (* (* *))\n"
    _call(capsys, ["leq", "((* *) *)", "(* (* *))", "--dot"])
    assert _call(capsys, ["leq", "((* *) *)", "(* (* *))"])[1] == "true\n"


def test_negative_shape_parameters_are_rejected(capsys):
    from planarops.diagrams import DiagramError, inner_corolla, module_corolla
    for make in (module_corolla, inner_corolla):
        for j, k in ((-1, 2), (2, -1)):
            with pytest.raises(DiagramError):
                make(j, k)
    for argv in (["homology", "I-1,2"], ["homology", "I-1,2", "--q"],
                 ["enumerate", "M-3,1", "0"], ["enumerate", "M-3,1", "-1"],
                 ["enumerate", "I0,-2", "0", "--format", "json"]):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_missing_fixture_is_an_input_error(capsys):
    code = main(["tensor-ainf", "/nonexistent", "b", "--arity", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_json(capsys):
    from planarops.verify import CHECKS
    code, out = run(capsys, "verify", "--max-leaves", "4", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert [c["name"] for c in data["checks"]] == [n for n, _fn in CHECKS]
    for check in data["checks"]:
        assert set(check) == {"name", "ok", "detail", "seconds"}
        assert check["ok"] is True and check["seconds"] >= 0
    assert data["passed"] == len(CHECKS)


def test_verify_json_carries_the_traceback_of_a_crash(capsys, monkeypatch):
    from planarops import verify

    def crashing(max_leaves):
        raise ZeroDivisionError("no generators")

    monkeypatch.setattr(verify, "CHECKS", [("crashing", crashing)])
    code, out = run(capsys, "verify", "--max-leaves", "4", "--format", "json")
    (check,) = json.loads(out)["checks"]
    assert code == 1
    assert check["ok"] is False and check["detail"] == "error: no generators"
    assert "ZeroDivisionError: no generators" in check["traceback"]


def test_malformed_fixtures_are_input_errors(capsys, tmp_path):
    good = {"name": "g", "basis": [{"name": "u", "degree": 0}], "d": [],
            "mu": {"2": [[["u", "u"], "u", "1"]]}}
    unknown = dict(good, mu={"2": [[["u", "b"], "u", "1"]]})
    cases = {"no_basis.json": ({"name": "x"}, "'basis'"),
             "unknown.json": (unknown, "'b'"),
             "list.json": ([1, 2], "'basis'")}
    for name, (data, needle) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code = main(["tensor-ainf", str(path), str(path), "--arity", "2"])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("error: ") and needle in err, (name, err)


def test_bad_numbers_say_what_was_expected(capsys):
    cases = [(["enumerate", "T", "0"], "shapes look like T4"),
             (["enumerate", "I5,0", "-1"], "degree is a nonnegative integer"),
             (["boundary", "c", "x*((* *))"], "coefficient"),
             (["boundary", "c", "((* *) ; 1 x)"], "permutation"),
             (["boundary", "c", "((* *) ; id ; [1-2x])"], "leaf intervals"),
             (["boundary", "c", "(((* *) *) ; id ; [0-1])"], "leaves 1..3"),
             (["pmap", "(((* *) *) ; id ; [1-2] ; metric:[2-4])"],
              "leaves 1..3"),
             (["qmap", "((* (* *) *) ; id ; [3-7])"], "leaves 1..4")]
    for argv, needle in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert needle in err and "invalid literal" not in err, (argv, err)


def test_unknown_generator_sections_are_input_errors(capsys):
    cases = [(["pmap"], "((* * *) ; id ; [] ; metrc:[])", "metrc:[]"),
             (["pmap"], "((* * *) ; id ; [] ; metric:[] ; junk)", "junk"),
             (["qmap"], "((* * *) ; id ; [] ; extra)", "extra"),
             # a metric marking means nothing in the chain operad
             (["boundary", "c"], "((* * *) ; id ; [] ; metric:[1-2])",
              "metric:[1-2]"),
             (["qmap"], "((* * *) ; id ; [] ; metric:[])", "metric:[]")]
    for command, literal, section in cases:
        code = main(command + [literal])
        captured = capsys.readouterr()
        assert code == 2, literal
        assert captured.out == "" and section in captured.err, captured.err


def test_tensor_ainf_rejects_arities_below_two(capsys):
    from pathlib import Path
    fx = Path(__file__).resolve().parent.parent / "src/planarops/fixtures"
    for arity in ("1", "0", "-2"):
        code = main(["tensor-ainf", str(fx / "frobenius.json"),
                     str(fx / "two_term.json"), "--arity", arity])
        captured = capsys.readouterr()
        assert code == 2, arity
        assert captured.out == ""
        assert "starts at arity 2" in captured.err, captured.err


def test_repeated_orientation_edge_is_an_input_error(capsys):
    from planarops.diagrams import DiagramError
    literal = "(((* *) *) ; id ; [1-2, 1-2])"
    with pytest.raises(DiagramError, match="each edge once"):
        parse_generator(literal, "c")
    for argv in (["qmap", literal], ["boundary", "q", literal]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert "each edge once" in captured.err, captured.err


def test_repeated_metric_edge_is_an_input_error(capsys):
    # with and without an orientation section, which used to drop the
    # repeat silently; without one, boundary and pmap crashed
    for literal in ("(((* *) *) ; id ; ; metric:[1-2, 1-2])",
                    "(((* *) *) ; id ; [1-2] ; metric:[1-2, 1-2])"):
        with pytest.raises(DiagramError, match="a metric lists each edge"):
            parse_generator(literal, "q")
        for argv in (["boundary", "q", literal], ["pmap", literal]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert "a metric lists each edge once" in captured.err, \
                captured.err


def test_leq_rejects_non_binary_diagrams_on_either_side(capsys):
    for argv in (["leq", "(* * *)", "((* *) *)"],
                 ["leq", "((* *) *)", "(* * *)"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert "need a binary diagram" in captured.err, captured.err


def test_malformed_fixture_entries_name_their_section(capsys, tmp_path):
    from pathlib import Path
    fx = Path(__file__).resolve().parent.parent / "src/planarops/fixtures"
    base = json.loads((fx / "two_term.json").read_text())

    def edit(section, key, value):
        data = json.loads(json.dumps(base))
        data[section][key] = value
        return data

    basis = [{"name": "u", "degree": 0}, {"name": "v", "degree": 1}]
    cases = {
        "mu_one_arg": (edit("mu", "2", [[["u"], "u", "1"]]), 'mu "2"',
                       "arity 1, not 2"),
        "d_two_fields": (dict(base, d=[["u", "v"]]), "d expects",
                         '["src", "dst", "coef"]'),
        "rho_one_arg": (edit("rho", "0,0", [[["u"], "1"]]), 'rho "0,0"',
                        "arity 1, not 2"),
        "rho_bad_key": (edit("rho", "0", [[["u", "v"], "1"]]), 'rho "0"',
                        '"j,k"'),
        "bad_coef": (edit("rho", "0,0", [[["u", "v"], "x"]]), 'rho "0,0"',
                     '"coef"'),
        "bad_degree": (dict(base, basis=[basis[0], dict(basis[1],
                                                        degree="zero")]),
                       "basis expects", '"degree"'),
        "mu_not_object": (dict(base, mu=[1]), "mu expects", "an object"),
        "bad_rho_degree": (dict(base, rho_degree="x"), "rho_degree",
                           "an integer"),
    }
    for name, (data, section, form) in cases.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(data))
        code = main(["tensor-ainf", str(path), str(path), "--arity", "2"])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("error: fixture: ") and section in err \
            and form in err, (name, err)
        for raw in ("relation fails", "unpack", "nvalid literal",
                    "inhomogeneous", "int()"):
            assert raw not in err, (name, err)


def test_broken_pipe_exits_quietly(capsys, monkeypatch):
    # `planarops ... | head`: the reader closes the pipe before the output
    # is written; no error message, and the exit code of SIGPIPE
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["enumerate", "I1,1", "0"]) == 141
    assert capsys.readouterr().err == ""


def _left_comb(depth):
    text = "(* *)"
    for _ in range(depth - 1):
        text = "(%s *)" % text
    return text


@pytest.mark.parametrize("depth", [400, 1200])
def test_deep_diagrams_are_an_input_error(capsys, depth):
    # 1,200 levels overflow the parser; 400 levels parse, and overflow the
    # walks of minmax before Python 3.12, whose recursion limit counts
    # Python frames only
    code = main(["minmax", _left_comb(depth)])
    captured = capsys.readouterr()
    if depth == 400 and sys.version_info >= (3, 12):
        assert code == 0 and captured.out.startswith("min: ")
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: diagram nests too deeply\n"


_GRAMMAR = st.sampled_from(list("()*{}<>|;[]-,: 0123456789") + [
    "id", "metric:", " ; ", "* ", "T", "M", "I"])
_TEXTS = st.one_of(st.text(max_size=40),
                   st.lists(_GRAMMAR, max_size=30).map("".join))


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_parse_shape_returns_or_raises_an_input_error(text):
    try:
        parse_shape(text)
    except (DiagramError, ValueError):
        pass


@settings(max_examples=300, deadline=None)
@given(_TEXTS, st.sampled_from(["c", "q"]))
def test_parse_generator_returns_or_raises_an_input_error(text, which):
    try:
        parse_generator(text, which)
    except (DiagramError, ValueError):
        pass
