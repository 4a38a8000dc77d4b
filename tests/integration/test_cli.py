"""Tests for the command-line compiler driver."""

import re

import pytest

from repro.cache import ArtifactCache
from repro.cli import DEFAULT_PASSES, main, run_pipeline

MATMUL = """
procedure matmul(A[2], B[2], C[2]; n)
  for i = 1, n
    for j = 1, n
      C(i, j) := 0.0
      for k = 1, n
        C(i, j) := C(i, j) + A(i, k) * B(k, j)
      end
    end
  end
end
"""


@pytest.fixture
def mm_file(tmp_path):
    f = tmp_path / "mm.loop"
    f.write_text(MATMUL)
    return str(f)


class TestRunPipeline:
    def test_default_pipeline_coalesces_matmul(self):
        proc, results = run_pipeline(MATMUL)
        assert len(results) == 2  # init nest + reduction nest
        assert all(r.depth == 2 for r in results)

    def test_pipeline_equivalence(self):
        from repro.frontend.dsl import parse
        from tests.equivalence import assert_equivalent

        original = parse(MATMUL)
        transformed, _ = run_pipeline(MATMUL)
        assert_equivalent(
            original, transformed, {k: (7, 7) for k in "ABC"}, {"n": 6}
        )

    def test_pass_subset(self):
        # Without analyze the source's serial loops stay serial, so there
        # is no DOALL nest to coalesce.
        proc, results = run_pipeline(MATMUL, passes="normalize,coalesce")
        assert results == []
        from repro.ir.visitor import collect_loops
        from repro.ir.stmt import LoopKind

        kinds = {lp.var: lp.kind for lp in collect_loops(proc)}
        assert kinds == dict.fromkeys("ijk", LoopKind.SERIAL)

    def test_divmod_style(self):
        proc, results = run_pipeline(MATMUL, style="divmod")
        from repro.ir import to_source

        assert "ceildiv" not in to_source(proc)

    def test_depth_limit(self):
        proc, results = run_pipeline(MATMUL, depth=1)
        # depth=1 coalesces single loops; min_depth in coalesce_procedure
        # filters them out, so nothing happens.
        assert results == []

    def test_unknown_pass(self):
        with pytest.raises(ValueError, match="unknown pass"):
            run_pipeline(MATMUL, passes="vectorize")

    def test_custom_pass_list_is_served_from_the_cache(self, tmp_path):
        store = ArtifactCache(tmp_path)
        cold, _ = run_pipeline(MATMUL, passes="normalize,coalesce", cache=store)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        warm, _ = run_pipeline(MATMUL, passes="normalize,coalesce", cache=store)
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert warm == cold

    def test_transforms_option_is_the_same_as_naming_the_passes(self):
        from repro.ir import to_source
        from repro.workloads import get_workload

        source = to_source(get_workload("mixed_update").proc)
        named = run_pipeline(
            source, passes="normalize,analyze,fission,reduction,distribute,coalesce"
        )
        for passes in (DEFAULT_PASSES, "normalize,analyze,fission,distribute,coalesce"):
            assert run_pipeline(
                source, passes=passes, transforms="fission,reduction"
            ) == named
        (split,) = named[1]
        assert split.applied == 1 and split.recognized == 0

    @pytest.mark.parametrize(
        "passes, problem",
        [
            ("normalize,vectorize,coalesce", "unknown pass 'vectorize'"),
            ("normalize,analyze,analyze,coalesce", "'analyze' is named more than once"),
            ("normalize,distribute,analyze,coalesce", "out of order"),
            ("coalesce,normalize", "out of order"),
            ("analyze,coalesce", "must include 'normalize'"),
            ("normalize,analyze", "must include 'coalesce'"),
        ],
    )
    def test_bad_pass_list_exits_1_naming_the_problem(
        self, mm_file, passes, problem, capsys
    ):
        assert main([mm_file, "--passes", passes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err


class TestMain:
    def test_emit_loop(self, mm_file, capsys):
        assert main([mm_file]) == 0
        out = capsys.readouterr().out
        assert "doall i_flat" in out

    def test_emit_python(self, mm_file, capsys):
        assert main([mm_file, "--emit", "python"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("def matmul(")

    def test_emit_both(self, mm_file, capsys):
        assert main([mm_file, "--emit", "both"]) == 0
        out = capsys.readouterr().out
        assert "procedure matmul" in out and "def matmul(" in out

    def test_report(self, mm_file, capsys):
        assert main([mm_file, "--report"]) == 0
        err = capsys.readouterr().err
        assert "coalesced nest (i, j)" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(MATMUL))
        assert main(["-"]) == 0
        assert "doall" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/x.loop"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.loop"
        f.write_text("procedure broken\nx := := 2\nend")
        assert main([str(f)]) == 1
        assert "error" in capsys.readouterr().err

    def test_triangular_flag(self, tmp_path, capsys):
        f = tmp_path / "tri.loop"
        f.write_text(
            "procedure tri(T[2]; n)\n"
            "for i = 1, n\n"
            "for j = 1, i\n"
            "T(i, j) := T(i, j) + 1.0\n"
            "end\nend\nend"
        )
        assert main([str(f), "--triangular", "--report"]) == 0
        captured = capsys.readouterr()
        assert "isqrt" in captured.out
        assert "coalesced triangular nest (i, j)" in captured.err
        assert "strategy=exact" in captured.err

    def test_triangular_off_by_default(self, tmp_path, capsys):
        f = tmp_path / "tri.loop"
        f.write_text(
            "procedure tri(T[2]; n)\n"
            "for i = 1, n\n"
            "for j = 1, i\n"
            "T(i, j) := T(i, j) + 1.0\n"
            "end\nend\nend"
        )
        assert main([str(f), "--report"]) == 0
        captured = capsys.readouterr()
        assert "isqrt" not in captured.out
        assert "no nests coalesced" in captured.err

    def test_report_no_nests(self, tmp_path, capsys):
        f = tmp_path / "flat.loop"
        f.write_text("procedure f(A[1]; n)\nfor i = 1, n\nA(i) := 1.0\nend\nend")
        assert main([str(f), "--report"]) == 0
        assert "no nests coalesced" in capsys.readouterr().err


class TestMPBackendCLI:
    def test_emit_python_mp_prints_chunk_functions(self, mm_file, capsys):
        assert main([mm_file, "--emit", "python", "--backend", "mp"]) == 0
        out = capsys.readouterr().out
        assert "__chunk" in out and "__lo, __hi" in out

    def test_run_workload_mp(self, capsys):
        assert (
            main(
                [
                    "--workload", "saxpy2d", "--run", "--backend", "mp",
                    "--workers", "2", "--policy", "gss",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "results match serial: True" in out
        assert "mp[gss" in out
        assert re.search(r"lock ops, (native|py) claim loop\]", out)

    def test_run_hybrid_workload_says_how_many_fork_joins(self, capsys):
        args = [
            "--workload", "gauss_jordan", "--run", "--backend", "mp",
            "--workers", "2", "--passes", "normalize,coalesce",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "results match serial: True" in out
        if "native claim loop" in out:
            assert "11 dispatches in 1 fork/join," in out
        assert main(args + ["--policy", "static"]) == 0
        out = capsys.readouterr().out
        assert "11 dispatches in 11 fork/joins," in out
        assert "region: not used (SPMD005: " in out

    def test_run_workload_serial_backend(self, capsys):
        assert main(["--workload", "saxpy2d", "--run"]) == 0
        out = capsys.readouterr().out
        assert "results match serial: True" in out

    def test_run_with_gantt(self, capsys):
        assert (
            main(
                [
                    "--workload", "saxpy2d", "--run", "--backend", "mp",
                    "--workers", "2", "--gantt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "measured schedule" in out and "P0" in out

    def test_run_enforce_safe_workload(self, capsys):
        assert (
            main(
                [
                    "--workload", "saxpy2d", "--run", "--backend", "mp",
                    "--workers", "2",
                ]
            )
            == 0
        )
        assert "results match serial: True" in capsys.readouterr().out

    def test_run_enforce_racy_workload_fails(self, capsys):
        # Skip the analyze pass so the lying DOALL claim survives to the
        # runtime: the default safety gate must refuse it with the rule code.
        assert (
            main(
                [
                    "--workload", "racy_flow", "--run", "--backend", "mp",
                    "--workers", "2",
                    "--passes", "normalize,distribute,coalesce",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "safety=inspect refused" in err and "RACE001" in err

    def test_run_off_racy_workload_runs_as_tagged(self, capsys):
        """off neither verifies nor refuses: the racy DOALL dispatches as
        tagged.  One worker, so the genuinely racy loop still computes
        the serial answer: with two, exit code 0 would hold only while
        worker 0 finished its chunk before worker 1 woke."""
        assert (
            main(
                [
                    "--workload", "racy_flow", "--run", "--backend", "mp",
                    "--workers", "1", "--safety", "off",
                    "--passes", "normalize,distribute,coalesce",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "safety: " not in captured.err
        assert "mp[gss, 1 workers" in captured.out
        assert "1 dispatches in 1 fork/join" in captured.out
        assert "results match serial: True" in captured.out

    def test_run_floyd_is_not_told_to_coalesce(self, capsys):
        """The default passes analyse before they coalesce, so floyd's
        DOALL tags are demoted and nothing is left to coalesce: the
        refusal names the analysis, not a pass that already ran."""
        assert main(["--workload", "floyd", "--run", "--backend", "mp"]) == 1
        err = capsys.readouterr().err
        assert "no loop is tagged DOALL" in err
        assert "coalesce it first" not in err

    def test_workload_without_run_emits_transform(self, capsys):
        assert main(["--workload", "saxpy2d"]) == 0
        assert "doall i_flat" in capsys.readouterr().out

    def test_workload_and_input_conflict(self, mm_file, capsys):
        assert main([mm_file, "--workload", "matmul"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_requires_workload(self, mm_file, capsys):
        assert main([mm_file, "--run"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_unknown_workload(self, capsys):
        assert main(["--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_no_input_at_all(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--reuse-pool", "--no-reuse-pool"])
    def test_reuse_pool_flag_is_gone(self, flag, capsys):
        # One dispatch engine: the flag that chose between two is an
        # argparse error, not a silently accepted no-op.
        with pytest.raises(SystemExit) as exc:
            main(["--workload", "saxpy2d", "--run", "--backend", "mp", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--variants", "gcc-O3"], ["--calibrate"], ["--no-calibrate"]],
    )
    def test_tuner_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workload", "saxpy2d", "--run", "--backend", "mp", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chunk_lang_flag_is_gone(self, capsys):
        # The chunk language is derived from the host and the dtypes.
        with pytest.raises(SystemExit) as exc:
            main([
                "--workload", "saxpy2d", "--run", "--backend", "mp",
                "--chunk-lang", "py",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "2.7", "two"])
    def test_workers_must_be_a_positive_integer(self, value, capsys):
        # A count the run cannot honour is refused before anything runs,
        # never floored to 1 and then reported as given.
        with pytest.raises(SystemExit) as exc:
            main([
                "--workload", "saxpy2d", "--run", "--backend", "mp",
                f"--workers={value}",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "workers must be an integer >= 1" in err

    @pytest.mark.parametrize("value", ["0", "-5", "2.7", "true", "4", "auto"])
    def test_claim_batch_must_be_auto_or_a_positive_integer(
        self, value, capsys
    ):
        # The claim batch is derived, never requested: there is no such
        # flag, so any value of it is an argparse error.
        with pytest.raises(SystemExit) as exc:
            main([
                "--workload", "saxpy2d", "--run", "--backend", "mp",
                f"--claim-batch={value}",
            ])
        assert exc.value.code == 2
        assert "--claim-batch" in capsys.readouterr().err
