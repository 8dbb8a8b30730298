"""CLI smoke and behaviour tests."""

import io

import pytest

from repro.cli import build_parser, main
from tests.fresh import fresh_interpreter


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSpeedup:
    def test_default_medians(self):
        code, text = _run(["speedup"])
        assert code == 0
        assert "Trans-1RTT" in text
        assert "x" in text

    def test_custom_operating_point(self):
        code, text = _run(["speedup", "--d-wa", "26.3"])
        assert code == 0
        # US operating point: Trans-1RTT + INSA ~ 31x.
        line = next(
            l for l in text.splitlines()
            if l.startswith("Trans-1RTT") and "yes" in l
        )
        value = float(line.split()[-1].rstrip("x"))
        assert 26 < value < 37

    def test_periodical(self):
        code, text = _run(["speedup", "--interval", "200"])
        assert code == 0
        assert "interval 200 ms" in text


class TestBreakdown:
    def test_totals_present(self):
        code, text = _run(["breakdown"])
        assert code == 0
        assert "no-snatch" in text
        assert "snatch-trans-insa" in text
        assert "1009" in text or "1008" in text


class TestTestbed:
    def test_trans_insa_run(self):
        code, text = _run(
            ["testbed", "--scheme", "trans-1rtt", "--insa",
             "--duration-ms", "2000"]
        )
        assert code == 0
        assert "median 60" in text
        assert "counts exact" in text

    def test_baseline_has_no_aggregation_line(self):
        code, text = _run(
            ["testbed", "--scheme", "no-snatch", "--duration-ms", "2000"]
        )
        assert code == 0
        assert "aggregation" not in text


class TestOtherCommands:
    def test_measure(self):
        code, text = _run(["measure", "--sites", "60"])
        assert code == 0
        assert "d_ci" in text

    def test_table1(self):
        code, text = _run(["table1"])
        assert code == 0
        assert "partitionBy" in text and "N/A" in text

    def test_carriers(self):
        code, text = _run(["carriers"])
        assert code == 0
        assert "quic-connection-id" in text


class TestMetricsCommand:
    def test_prints_metrics_table(self):
        code, text = _run(["metrics", "--duration-ms", "600"])
        assert code == 0
        assert "workload: chaos scenario=standard-outage" in text
        assert "pipeline.lark.packets" in text
        assert "rpc.sends" in text
        assert "chaos.events" in text

    def test_spans_flag_prints_span_table(self):
        code, text = _run(["metrics", "--duration-ms", "600", "--spans"])
        assert code == 0
        assert "chaos.run" in text

    def test_json_dump_parses(self, tmp_path):
        from repro.obs import parse_jsonl

        path = tmp_path / "dump.jsonl"
        code, text = _run(
            ["metrics", "--duration-ms", "600", "--json", str(path)]
        )
        assert code == 0
        records = parse_jsonl(path.read_text(encoding="utf-8"))
        assert records, "dump is empty"
        assert "wrote %d records" % len(records) in text
        assert any(r["kind"] == "span" for r in records)

    def test_no_scenario_runs_clean(self):
        code, text = _run(
            ["metrics", "--scenario", "none", "--duration-ms", "600"]
        )
        assert code == 0
        assert "consistent=yes" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["testbed", "--scheme", "carrier-pigeon"])

    def test_subcommand_set_is_the_seven_survivors(self):
        assert (
            "{speedup,breakdown,testbed,measure,metrics,table1,carriers}"
            in build_parser().format_help()
        )

    def test_bench_subcommand_is_gone(self, capsys):
        """Performance numbers come from ``bench/run.py``; the old
        ``bench`` subcommand is an argparse error, not an alias."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_scheme_choices_are_the_enum_values(self):
        """The CLI spells the choices out so that ``--help`` need not
        import the testbed; they must stay the enum's values."""
        from repro import cli
        from repro.testbed.config import Scheme

        assert sorted(cli._SCHEMES) == sorted(s.value for s in Scheme)
        for value in cli._SCHEMES:
            args = build_parser().parse_args(["testbed", "--scheme", value])
            assert Scheme(args.scheme).value == value


class TestHandlersImportWhatTheyRun:
    """Counted on ``sys.modules`` in a fresh interpreter, not timed."""

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["table1"], ["speedup"], ["breakdown"], ["carriers"]],
        ids=lambda argv: argv[0],
    )
    def test_model_subcommands_load_neither_numpy_nor_testbed(self, argv):
        probe = (
            "import io, json, sys\n"
            "from repro.cli import main\n"
            "out = io.StringIO()\n"
            "sys.stdout = out\n"
            "try:\n"
            "    code = main(sys.argv[1:], out=out)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "sys.stdout = sys.__stdout__\n"
            "print(json.dumps({'code': code, 'text': out.getvalue(),"
            " 'loaded': sorted(sys.modules)}))\n"
        )
        result = fresh_interpreter(probe, *argv)
        assert result["code"] == 0 and result["text"]
        loaded = result["loaded"]
        assert "numpy" not in loaded
        assert "repro.testbed.experiment" not in loaded
        assert "repro.testbed" not in loaded
        if argv == ["--help"]:
            assert [m for m in loaded if m.startswith("repro")] == [
                "repro", "repro._lazy", "repro.cli",
            ]
