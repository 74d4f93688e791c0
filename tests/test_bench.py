import csv
import io

import pytest

from pellrsa import cli
from pellrsa.bench import BenchConfig, emit_report, run_benchmark
from pellrsa.errors import ConfigInfeasible


@pytest.fixture(scope="module")
def results():
    return [run_benchmark(BenchConfig(512, r, trials=1, seed=r)) for r in (3, 2)]


def test_run_benchmark_smoke(results):
    for res, r in zip(results, (3, 2)):
        assert (res.modulus_bits, res.r) == (512, r)
        assert res.pell_decrypt_ns > 0 and res.rsa_decrypt_ns > 0
        assert res.measured_speedup == res.rsa_decrypt_ns / res.pell_decrypt_ns
        assert res.predicted_speedup == r * r / 2


def test_run_benchmark_rejects_infeasible_configs():
    with pytest.raises(ConfigInfeasible):
        run_benchmark(BenchConfig(512, 1))
    with pytest.raises(ConfigInfeasible):
        run_benchmark(BenchConfig(512, 2, exponents=(1,)))


def test_emit_report_table_and_csv(results):
    table = emit_report(results).splitlines()
    assert table[0].split() == ["bits", "r", "pell_ns", "rsa_ns", "measured", "predicted"]
    # rows sorted by (bits, r) and right-aligned to the widest cell
    assert [line.split()[1] for line in table[1:]] == ["2", "3"]
    assert len({len(line) for line in table}) == 1
    rows = list(csv.reader(io.StringIO(emit_report(results, format="csv"))))
    assert rows[0] == ["bits", "r", "pell_ns", "rsa_ns", "measured", "predicted"]
    assert [row[:2] for row in rows[1:]] == [["512", "2"], ["512", "3"]]
    assert rows[2][5] == "4.5"
    with pytest.raises(ValueError):
        emit_report(results, format="json")
    with pytest.raises(ValueError):
        emit_report([])


def test_cli_bench_returns_zero(capsys):
    argv = ["bench", "--bits", "512", "--primes", "2,3", "--trials", "1", "--format", "csv"]
    assert cli.dispatch(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[:2] for row in rows[1:]] == [["512", "2"], ["512", "3"]]
