"""Command line behaviour: exit codes, output formats, file round trips."""

import json

import pytest

import cd3csp.solver as solver_mod
from cd3csp import LemmaViolation, fileio, majority_algebra, switch_algebra
from cd3csp.cli import main

from tests.conftest import EQ2, NEQ2, mk_instance


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def maj2_file(tmp_path):
    p = tmp_path / "maj2.json"
    fileio.write_algebra(p, majority_algebra(2))
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    inst = mk_instance(
        majority_algebra(2), [((0, 1), EQ2), ((1, 2), EQ2), ((0, 2), NEQ2)]
    )
    p = tmp_path / "unsat.json"
    fileio.write_instance(p, inst)
    return str(p)


@pytest.fixture
def sat_file(tmp_path):
    inst = mk_instance(switch_algebra(2), [((0, 1), NEQ2), ((1, 2), NEQ2)])
    p = tmp_path / "sat.json"
    fileio.write_instance(p, inst)
    return str(p)


class TestCheckAlgebra:
    def test_ok(self, capsys, maj2_file):
        code, out, _ = run(capsys, "check-algebra", maj2_file)
        assert code == 0
        assert out == "ok: size 2, chain pair (j1, j2)\n"

    def test_violation_lines(self, capsys, tmp_path, maj2_file):
        obj = json.loads(open(maj2_file).read())
        # break j2 at the cell (0,0,1): identity j2(x,x,y)=y demands 1 there
        obj["ops"][1]["table"] = list(obj["ops"][1]["table"])
        obj["ops"][1]["table"][1] = 0
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check-algebra", str(p))
        assert code == 2
        assert "violated: j2(x,x,y)=y at (0, 0, 1)" in out

    def test_unreadable(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-algebra", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")


class TestGenerate:
    def test_gen_algebra_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "gen-algebra", "--seed", "5", "--size", "3", "-o", str(a))[0] == 0
        assert run(capsys, "gen-algebra", "--seed", "5", "--size", "3", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        obj = json.loads(a.read_text())
        assert obj["generator"]["seed"] == 5

    def test_gen_algebra_stdout_then_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-algebra", "--seed", "1")
        assert code == 0
        p = tmp_path / "gen.json"
        p.write_text(out)
        assert run(capsys, "check-algebra", str(p))[0] == 0

    def test_gen_instance_writes_loadable_file(self, capsys, tmp_path):
        p = tmp_path / "inst.json"
        code, _, _ = run(
            capsys,
            "gen-instance", "--seed", "9", "--size", "2",
            "--vars", "5", "--constraints", "4", "-o", str(p),
        )
        assert code == 0
        inst = fileio.read_instance(p)
        assert len(inst.sig.domains) == 5
        assert len(inst.constraints) == 4
        stanza = json.loads(p.read_text())["generator"]
        assert stanza["seed"] == 9 and stanza["num_vars"] == 5

    def test_gen_instance_honors_algebra_file(self, capsys, tmp_path):
        apath = tmp_path / "alg.json"
        run(capsys, "gen-algebra", "--seed", "3", "--size", "3", "-o", str(apath))
        ipath = tmp_path / "inst.json"
        code, _, _ = run(
            capsys, "gen-instance", "--algebra", str(apath), "--seed", "2",
            "-o", str(ipath),
        )
        assert code == 0
        inst = fileio.read_instance(ipath)
        assert inst.sig.domains[0] == fileio.read_algebra(apath)


class TestSolveOracleMinimalize:
    def test_solve_sat(self, capsys, sat_file):
        code, out, _ = run(capsys, "solve", sat_file)
        assert code == 0
        assert out == "SAT 0 1 0\n"

    def test_oracle_matches(self, capsys, sat_file):
        code, out, _ = run(capsys, "oracle", sat_file)
        assert code == 0
        assert out == "SAT 0 1 0\n"

    def test_solve_unsat_exit_10(self, capsys, unsat_file):
        code, out, _ = run(capsys, "solve", unsat_file)
        assert code == 10
        assert out.startswith("UNSAT certificate scope ")

    def test_oracle_unsat(self, capsys, unsat_file):
        code, out, _ = run(capsys, "oracle", unsat_file)
        assert code == 10
        assert out.startswith("UNSAT")

    def test_minimalize_empty_exit_10(self, capsys, unsat_file):
        code, out, _ = run(capsys, "minimalize", unsat_file)
        assert code == 10
        assert out.startswith("EMPTY at k=3, certificate scope ")

    def test_minimalize_writes_effective_instance(self, capsys, sat_file, tmp_path):
        p = tmp_path / "eff.json"
        code, out, _ = run(capsys, "minimalize", sat_file, "-o", str(p))
        assert code == 0
        assert out.startswith("nonempty at k=3:")
        eff = fileio.read_instance(p)
        assert eff.k == 3
        # the effective instance decides the same way
        code2, out2, _ = run(capsys, "oracle", str(p))
        assert code2 == 0

    def test_solve_rejects_non_invariant_instance(self, capsys, tmp_path):
        # the one-in-three relation is not preserved by majority
        inst = mk_instance(
            majority_algebra(2), [((0, 1), EQ2), ((0, 1, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))]
        )
        p = tmp_path / "not_invariant.json"
        fileio.write_instance(p, inst)
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2
        assert out == ""
        assert err == (
            "error: constraint on scope (0, 1, 2) is not preserved by the domain operations\n"
        )

    def test_solve_violation_exit_3(self, capsys, tmp_path, monkeypatch):
        # four variables with k=3, so solve reaches the base case
        inst = mk_instance(switch_algebra(2), [((0, 1), NEQ2), ((1, 2), NEQ2), ((2, 3), NEQ2)])
        p = tmp_path / "chain.json"
        fileio.write_instance(p, inst)

        def boom(mi):
            raise LemmaViolation("forced")

        monkeypatch.setattr(solver_mod, "base_case_solve", boom)
        code, out, err = run(capsys, "solve", str(p))
        assert code == 3
        assert out == ""
        assert err == "violation: forced\n"

    def test_solve_rejects_bad_k(self, capsys, sat_file):
        code, _, err = run(capsys, "solve", sat_file, "--k", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_wide_constraint_needs_k_at_least_square(self, capsys, tmp_path):
        # an arity-4 constraint over two elements is filtered only with k >= 4
        inst = mk_instance(
            majority_algebra(2),
            [((0, 1, 2, 3), ((0, 0, 0, 0), (1, 1, 1, 1))), ((3, 4), EQ2)],
        )
        p = tmp_path / "wide.json"
        fileio.write_instance(p, inst)
        code, _, err = run(capsys, "solve", str(p), "--k", "3")
        assert code == 2
        assert err.startswith("error:")
        code, out, _ = run(capsys, "solve", str(p))
        assert code == 0
        assert out.startswith("SAT")


class TestCompare:
    def test_agreement_run(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--trials", "5", "--seed", "1",
            "--vars", "4", "--constraints", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(": agree " in line for line in lines)
        assert not any("DISAGREE" in line for line in lines)


class TestLemmaSuite:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "lemma-suite", "--which", "ideal", "--trials", "10"
        )
        assert code == 0
        assert out.startswith("ideal: ")
        assert "cases" in out and "checks" in out

    def test_all_suites_report_once_each(self, capsys):
        code, out, _ = run(
            capsys, "lemma-suite", "--trials", "3", "--seed", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        names = sorted(line.split(":")[0] for line in lines)
        assert names == [
            "almost-trivial", "connected-simple", "distance",
            "gamma-j", "ideal", "pullback", "rj",
        ]
