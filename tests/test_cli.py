"""End-to-end CLI checks through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleysort
from cayleysort import census
from cayleysort.cli import EXIT_BROKEN_PIPE, build_parser, main
from cayleysort.stack import _outputs
from conftest import corrupt_law_basis


def _corrupt_outputs(monkeypatch) -> list[int]:
    """Make the output sweep give 231 for the input 123; returns the list
    the lengths of the sweeps are appended to."""
    real = census._outputs
    lengths = []

    def corrupted(n, sigmas, flush_all):
        lengths.append(n)
        for w, out in real(n, sigmas, flush_all):
            yield w, ((2, 3, 1) if w == (1, 2, 3) else out)

    monkeypatch.setattr(census, "_outputs", corrupted)
    return lengths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSort:
    def test_sortable(self, capsys):
        code, out, _ = run(capsys, "sort", "--sigma", "1 1", "4 2 1 3 2")
        assert code == 0
        assert out == "3 1 2 2 4\nSORTABLE\n"

    def test_unsortable_is_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "sort", "--sigma", "1 1", "1 3 2")
        assert code == 0
        assert out == "2 3 1\nUNSORTABLE\n"

    def test_compact_perm_form(self, capsys):
        code, out, _ = run(capsys, "sort", "--sigma", "21", "42132")
        assert code == 0
        assert out == "1 2 2 3 4\nSORTABLE\n"

    def test_invalid_perm(self, capsys):
        code, _, err = run(capsys, "sort", "--sigma", "1 1", "1 0 2")
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_sigma(self, capsys):
        code, _, err = run(capsys, "sort", "--sigma", "0", "1 2")
        assert code == 2
        assert "not positive" in err


class TestTrace:
    def test_sigma_stack_text(self, capsys):
        code, out, _ = run(capsys, "trace", "--sigma", "2 1", "2 3 1")
        assert code == 0
        assert out == "PUSH 2\nPOP 2\nPUSH 3\nPUSH 1\nPOP 1\nPOP 3\nOUTPUT: 2 1 3\n"

    def test_popstack_json(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--machine", "popstack-hare", "--format", "json", "2 1 2 1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"] == [1, 2, 1, 2]
        assert payload["events"][0] == ["PUSH", 2]

    def test_machine_descriptor_spacing(self, capsys):
        _, hyphen, _ = run(capsys, "trace", "--machine", "popstack-hare", "2 1 2 1")
        code, spaced, _ = run(capsys, "trace", "--machine", "popstack  hare", "2 1 2 1")
        assert code == 0
        assert spaced == hyphen

    def test_sigma_machine_descriptor(self, capsys):
        _, by_sigma, _ = run(capsys, "trace", "--sigma", "2 1", "2 3 1")
        code, out, _ = run(capsys, "trace", "--machine", "sigma-machine 2 1", "2 3 1")
        assert code == 0
        assert out == by_sigma

    def test_bare_mode_is_unknown_machine(self, capsys):
        code, out, err = run(capsys, "trace", "--machine", "hare", "2 1")
        assert code == 2
        assert out == ""
        assert "unknown machine 'hare'" in err

    def test_requires_exactly_one_machine(self, capsys):
        code, _, err = run(capsys, "trace", "2 1")
        assert code == 2
        assert "exactly one" in err
        code, _, _ = run(
            capsys, "trace", "--sigma", "2 1", "--machine", "popstack-hare", "2 1"
        )
        assert code == 2


class TestDyck:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "dyck", "--sigma", "1 1", "4 2 1 3 2")
        assert code == 0
        assert out == "UUUUDDDUDD\n4 2 1 3 2\n3 1 2 2 4\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "dyck", "--sigma", "1 1", "--format", "json", "4 2 1 3 2"
        )
        payload = json.loads(out)
        assert payload["steps"] == "UUUUDDDUDD"
        assert payload["up_labels"] == [4, 2, 1, 3, 2]
        assert payload["down_labels"] == [3, 1, 2, 2, 4]


class TestEnumerate:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--machine", "sigma-machine 21",
            "--n-max", "4", "--format", "csv",
        )
        assert code == 0
        assert out == "n,count\n1,1\n2,3\n3,13\n4,73\n"

    def test_bfile(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--machine", "popstack hare",
            "--n-max", "4", "--format", "bfile",
        )
        assert out == "1 1\n2 3\n3 11\n4 41\n"

    def test_text_header(self, capsys):
        _, out, _ = run(
            capsys, "enumerate", "--machine", "popstack tortoise", "--n-max", "2"
        )
        assert out.startswith("machine: popstack tortoise\n")
        assert "refined by block count:" in out

    def test_unknown_machine(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--machine", "bogus", "--n-max", "3"
        )
        assert code == 2
        assert "machine" in err

    def test_minus_sign_in_sigma_is_not_a_separator(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--machine", "sigma-machine 2 -1", "--n-max", "3"
        )
        assert code == 2
        assert "-1" in err

    def test_resource_bound(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--machine", "popstack hare", "--n-max", "9"
        )
        assert code == 2
        assert "CAYLEYSORT_MAX_N" in err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_nonpositive_threads_is_usage_error(self, capsys, threads):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--machine", "popstack hare", "--n-max", "3",
                  "--threads", threads])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_malformed_limit_env_var_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CAYLEYSORT_MAX_N", value)
        code, _, err = run(
            capsys, "enumerate", "--machine", "popstack hare", "--n-max", "3"
        )
        assert code == 2
        assert "CAYLEYSORT_MAX_N" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "tortoise-count", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["counts: 1 3 9 27 81", "PASS"]

    def test_class_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "class", "--sigma", "3 2 1", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma: 3 2 1"
        assert lines[1] == "predicted: avoidance class, basis 1 2 3; 1 3 2"
        assert lines[-1] == "PASS"

    def test_non_class_pass_shows_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "class", "--sigma", "1 1", "--n", "4")
        assert code == 0
        assert "witness alpha: 1 3 2" in out
        assert "witness beta: 3 1 3 2" in out
        assert "validated the witness pair only; no lengths swept" in out

    def test_fail_exit_one_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "involution", "--sigma", "2 1", "--n", "3")
        assert code == 1
        assert "counterexample: 1 2" in out
        assert out.splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize(
        "target, checked",
        [
            ("bijectivity", "checked bijection laws for lengths <= 6"),
            ("involution", "checked lengths <= 6"),
        ],
    )
    def test_sweep_reports_words_checked(self, capsys, target, checked):
        code, out, _ = run(capsys, "verify", target, "--sigma", "1 1", "--n", "6")
        assert code == 0
        assert out.splitlines() == ["sigma: 1 1", checked, "words checked: 5317", "PASS"]
        # the number of words the sweep visits, lengths 0 to 6
        assert sum(1 for n in range(7) for _ in _outputs(n, ((1, 1),), False)) == 5317

    @pytest.mark.parametrize(
        "argv",
        [
            ("mesh21",),
            ("popstack-hare",),
            ("popstack-tortoise",),
            ("class", "--sigma", "3 2 1"),
        ],
        ids=["mesh21", "hare", "tortoise", "class"],
    )
    def test_law_sweep_reports_words_checked(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv, "--n", "4")
        assert code == 0
        # lengths 0 to 4: 1 + 1 + 3 + 13 + 75 words
        assert out.splitlines()[-2:] == ["words checked: 93", "PASS"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("mesh21",),
            ("popstack-hare",),
            ("popstack-tortoise",),
            ("class", "--sigma", "3 2 1"),
        ],
        ids=["mesh21", "hare", "tortoise", "class"],
    )
    def test_law_sweep_fail_claims_no_word_count(self, capsys, monkeypatch, argv):
        corrupt_law_basis(monkeypatch)
        code, out, _ = run(capsys, "verify", *argv, "--n", "4")
        assert code == 1
        assert out.splitlines()[-2:] == ["counterexample: 1 2 3", "FAIL"]
        assert "words checked" not in out

    @pytest.mark.parametrize(
        "target, first",
        [
            ("sort11-equinum", "checked equinumerosity and the constructive map for lengths <= 4"),
            ("fubini", "counts: 1 3 13 75"),
        ],
        ids=["sort11-equinum", "fubini"],
    )
    def test_full_sweep_reports_words_checked(self, capsys, target, first):
        code, out, _ = run(capsys, "verify", target, "--n", "4")
        assert code == 0
        assert out.splitlines() == [first, "words checked: 93", "PASS"]

    def test_sort11_fail_claims_no_word_count(self, capsys, monkeypatch):
        _corrupt_outputs(monkeypatch)
        code, out, _ = run(capsys, "verify", "sort11-equinum", "--n", "4")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert "words checked" not in out

    def test_fubini_fail_claims_no_word_count(self, capsys, monkeypatch):
        real = census._iter_letters
        monkeypatch.setattr(
            census, "_iter_letters", lambda n: (w for w in real(n) if w != (1, 2, 3))
        )
        code, out, _ = run(capsys, "verify", "fubini", "--n", "4")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"
        assert "words checked" not in out

    def test_fubini_fail_names_the_failing_length(self, capsys, monkeypatch):
        real = census._iter_letters
        monkeypatch.setattr(
            census, "_iter_letters", lambda n: (w for w in real(n) if w != (1, 2, 3))
        )
        code, out, _ = run(capsys, "verify", "fubini", "--n", "4")
        assert code == 1
        assert out.splitlines() == ["counts: 1 3 12 75", "expected: 1 3 13 75", "FAIL"]

    @pytest.mark.parametrize(
        "argv, corrupt",
        [
            (("class", "--sigma", "3 2 1"), corrupt_law_basis),
            (("involution", "--sigma", "1 1"), _corrupt_outputs),
        ],
        ids=["class", "involution"],
    )
    def test_failing_sweep_runs_once(self, capsys, monkeypatch, argv, corrupt):
        # the verdict and the counterexample come from one sweep, which
        # stops in length 3: one law walk or output sweep for each length 0..3
        lengths = corrupt(monkeypatch)
        code, out, _ = run(capsys, "verify", *argv, "--n", "4")
        assert code == 1
        assert out.splitlines()[-2].startswith("counterexample: ")
        assert out.splitlines()[-1] == "FAIL"
        assert lengths == [0, 1, 2, 3]

    def test_involution_fail_claims_no_word_count(self, capsys):
        _, out, _ = run(capsys, "verify", "involution", "--sigma", "2 1", "--n", "3")
        assert "words checked" not in out

    def test_class_fail_names_the_first_counterexample(self, capsys, monkeypatch):
        corrupt_law_basis(monkeypatch)
        code, out, _ = run(capsys, "verify", "class", "--sigma", "3 2 1", "--n", "4")
        assert code == 1
        assert out.splitlines()[-2:] == ["counterexample: 1 2 3", "FAIL"]

    def test_bijectivity_collision(self, capsys):
        code, out, _ = run(capsys, "verify", "bijectivity", "--sigma", "2 1")
        assert code == 0
        assert "collision" in out

    def test_bijectivity_collision_claims_two_inputs(self, capsys):
        # the collision branch checks two words whatever --n says
        code, out, _ = run(capsys, "verify", "bijectivity", "--sigma", "2 1", "--n", "40")
        assert code == 0
        assert out.splitlines() == ["sigma: 2 1", "checked the collision on 2 inputs", "PASS"]

    def test_mesh21_small(self, capsys):
        code, out, _ = run(capsys, "verify", "mesh21", "--n", "4")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_fubini(self, capsys):
        code, out, _ = run(capsys, "verify", "fubini", "--n", "5")
        assert code == 0
        assert out.splitlines()[0] == "counts: 1 3 13 75 541"

    def test_sigma_required_for_class(self, capsys):
        code, _, err = run(capsys, "verify", "class")
        assert code == 2
        assert "--sigma" in err

    @pytest.mark.parametrize(
        "target",
        [
            "mesh21",
            "popstack-hare",
            "popstack-tortoise",
            "tortoise-count",
            "tortoise-refined",
            "sort11-equinum",
            "fubini",
        ],
    )
    def test_sigma_is_usage_error_where_not_taken(self, capsys, target):
        # a malformed sigma too: the target's table entry rejects it unread
        code, out, err = run(capsys, "verify", target, "--sigma", "2", "--n", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: verify {target} takes no --sigma\n"

    def test_unknown_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "everything"])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "invalid choice: 'everything' (choose from 'class', 'mesh21', "
            "'bijectivity', 'involution', 'popstack-hare', 'popstack-tortoise', "
            "'tortoise-count', 'tortoise-refined', 'sort11-equinum', 'fubini')\n"
        )


# verify target -> (the library's verdict, its counterexample stream or
# None), each called with the sigma (None for a target without --sigma) and n
_LIBRARY = {
    "class": (
        lambda s, n: census.verify_class(s, n).equality_holds,
        lambda s, n: census.class_violations(s, n),
    ),
    "mesh21": (
        lambda s, n: census.verify_21_machine_mesh(n),
        lambda s, n: census.mesh21_violations(n),
    ),
    "bijectivity": (lambda s, n: census.verify_bijectivity(s, n), None),
    "involution": (
        lambda s, n: census.verify_involution(s, n),
        lambda s, n: census.involution_violations(s, n),
    ),
    "popstack-hare": (
        lambda s, n: census.verify_popstack_characterization("hare", n),
        lambda s, n: census.popstack_violations("hare", n),
    ),
    "popstack-tortoise": (
        lambda s, n: census.verify_popstack_characterization("tortoise", n),
        lambda s, n: census.popstack_violations("tortoise", n),
    ),
    "tortoise-count": (lambda s, n: census.verify_tortoise_count(n), None),
    "tortoise-refined": (lambda s, n: census.verify_tortoise_refined(n), None),
    "sort11-equinum": (lambda s, n: census.sort11_equinumerosity(n), None),
    "fubini": (lambda s, n: census.verify_fubini(n), None),
}
# a predicted class, a non-class, and unequal first letters (a non-class
# whose involution law fails from length 2 on)
_SIGMAS = ("3 2 1", "1 1", "2 1")


def _verify_argv(target, sigma, n):
    return ["verify", target, "--n", str(n)] + ([] if sigma is None else ["--sigma", sigma])


@pytest.mark.filterwarnings("ignore:candidate witness")
@pytest.mark.parametrize(
    "target, sigma, n",
    [
        (target, sigma, n)
        for target in _LIBRARY
        for sigma in (_SIGMAS if target in ("class", "bijectivity", "involution") else (None,))
        for n in range(5)
    ],
)
def test_cli_verdict_is_the_library_verdict(capsys, target, sigma, n):
    code = main(_verify_argv(target, sigma, n))
    capsys.readouterr()
    verdict, _ = _LIBRARY[target]
    assert code == (0 if verdict(sigma and cayleysort.CayleyPerm.parse(sigma), n) else 1)


@pytest.mark.parametrize(
    "target, sigma",
    [
        ("class", "3 2 1"),
        ("mesh21", None),
        ("popstack-hare", None),
        ("popstack-tortoise", None),
        ("involution", "2 1"),
    ],
)
def test_cli_counterexample_is_the_first_violation(capsys, monkeypatch, target, sigma):
    corrupt_law_basis(monkeypatch)
    code, out, _ = run(capsys, *_verify_argv(target, sigma, 4))
    _, violations = _LIBRARY[target]
    bad = next(violations(sigma and cayleysort.CayleyPerm.parse(sigma), 4))
    assert code == 1
    assert out.splitlines()[-2:] == [f"counterexample: {bad}", "FAIL"]


@pytest.mark.parametrize("mode", ["hare", "tortoise"])
def test_popstack_target_sweeps_its_own_machine(capsys, monkeypatch, mode):
    # both laws hold, so only the mode the sweep is asked for tells them apart
    real, modes = census.popstack_violations, []
    monkeypatch.setattr(
        census, "popstack_violations", lambda m, n: modes.append(m) or real(m, n)
    )
    code, _, _ = run(capsys, "verify", f"popstack-{mode}", "--n", "3")
    assert code == 0
    assert modes == [mode]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--machine", "sigma-machine 21", "--n-max", "-3"],
        ["verify", "mesh21", "--n", "-2"],
        ["verify", "involution", "--sigma", "11", "--n", "-1"],
        ["basis", "--machine", "popstack hare", "--n", "-1"],
        ["verify", "fubini", "--n", "x"],
    ],
    ids=["enumerate", "mesh21", "involution", "basis", "not-an-integer"],
)
def test_negative_length_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected an integer of at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["cayleysort", "cayleysort.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(cayleysort.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, "sort", "--sigma", "21", "132"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 2 3\nSORTABLE\n"


def test_closed_pipe_exits_without_traceback():
    # as in `cayleysort enumerate ... | head -1` once head has exited
    src = str(Path(cayleysort.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cayleysort", "enumerate",
             "--machine", "sigma-machine 2 1", "--n-max", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_BROKEN_PIPE == 141
    assert result.stderr == ""


def test_serial_run_loads_no_process_pool():
    # the pool module pulls in multiprocessing; only --threads > 1 needs it
    src = str(Path(cayleysort.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, cayleysort.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "cayleysort.cli.main(['enumerate', '--machine', 'popstack hare', '--n-max', '3'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == lines[-1] == "False"


class TestWitness:
    def test_table_pair(self, capsys):
        code, out, _ = run(capsys, "witness", "--sigma", "2 3 1")
        assert code == 0
        assert out == "alpha: 1 3 2 4\nbeta: 3 6 1 4 2 5\n"

    def test_class_sigma_is_an_error(self, capsys):
        code, _, err = run(capsys, "witness", "--sigma", "1 2")
        assert code == 2
        assert "avoidance class" in err


class TestFertility:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "fertility", "--sigma", "1 2", "2 1")
        assert code == 0
        assert out == "2\n"


class TestBasis:
    def test_popstack_hare(self, capsys):
        code, out, _ = run(capsys, "basis", "--machine", "popstack-hare", "--n", "4")
        assert code == 0
        assert out == "2 3 1\n3 1 2\n2 1 2 1\n"

    def test_sigma_shorthand(self, capsys):
        code, out, _ = run(capsys, "basis", "--sigma", "3 2 1", "--n", "4")
        assert out == "1 2 3\n1 3 2\n"

    def test_beyond_the_sweep_bound_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("CAYLEYSORT_MAX_N", raising=False)
        code, out, err = run(capsys, "basis", "--sigma", "2 1", "--n", "9")
        assert code == 2
        assert out == ""
        assert "CAYLEYSORT_MAX_N" in err

    def test_exactly_one_selector(self, capsys):
        code, _, err = run(
            capsys, "basis", "--sigma", "2 1", "--machine", "popstack-hare", "--n", "3"
        )
        assert code == 2
        assert "exactly one" in err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["sort", "--sigma", "1 1", "2 1"])
    assert args.sigma == "1 1"
    assert args.perm == "2 1"
