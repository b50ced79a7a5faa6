"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run the benchmark in-process on a few small templates, so they take
seconds, not a full run.
"""

import json
import os
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import cliops  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_FP = [("x2", "uprol", 2), ("x3", "dr_k", 3), ("prod3", "kprol", 2)]


@pytest.fixture
def small_run(monkeypatch):
    """The benchmark on graded-fp shrunk to three templates, with the
    omegacalc modules the run re-imports and the CPU affinity it pins
    restored afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k.startswith("omegacalc")}
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(workloads, "GRADED_FP", SMALL_FP)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    yield
    os.sched_setaffinity(0, cpus)
    for k in [k for k in sys.modules if k.startswith("omegacalc")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _run(capsys, trace=0):
    code = run.main(["--workload", "graded-fp", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    return code, out, json.loads(out[-1])


def _bytes(doc):
    return json.dumps(doc, sort_keys=True).encode()


def _families():
    return ["x2", "x3", "x4", "z2", "z3", "s3", "m2", "inc3", "inc4", "prod2", "prod3",
            "prod4"]


def test_generator_is_deterministic_per_seed(tmp_path):
    def docs(seed):
        rng = random.Random(seed)
        out = []
        for p in (None, 2, 3, 5, 7):
            for fam in _families():
                alg = inputs.make_algebra(rng, fam, p)
                out.append(_bytes(alg.doc))
                pair = rng.choice(inputs.relation_pool(alg))
                out.append(_bytes(alg.relation_doc(*pair)))
        return out

    assert docs(11) == docs(11)
    assert docs(11) != docs(12)

    def cli_files(seed, sub):
        workdir = tmp_path / sub
        cliops.cli_ops(inputs.Draw("cli", seed, 0), {}, cliops.CliRunner(HERE.parent, workdir),
                       workdir, HERE.parent / "src" / "omegacalc" / "fixtures")
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    first = cli_files(5, "a")
    assert first == cli_files(5, "b")
    assert first != cli_files(6, "c")


def test_relabeling_keeps_the_algebra_axioms():
    sys.path.insert(0, str(HERE.parent / "src"))
    from omegacalc.io import algebra_from_json

    rng = random.Random(1)
    for p in (None, 3):
        for fam in _families():
            alg = inputs.make_algebra(rng, fam, p)
            assert algebra_from_json(alg.doc).dim == alg.dim


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(small_run, capsys, trace):
    code, out, result = _run(capsys, trace)
    assert code == 0
    expected = (
        [(name, unit) for name, unit, _ in layers.METRICS] if trace else run.END_TO_END
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for name, unit in expected:
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in out), name
    assert any(line.startswith("failed_share 0 share") for line in out)


def test_corrupted_expected_value_counts_as_failed(small_run, capsys, monkeypatch):
    reference = workloads.load_reference()
    corrupted = {k: ([v[0] + 1] + v[1:] if k.startswith("kdr|") else v)
                 for k, v in reference.items()}
    monkeypatch.setattr(workloads, "load_reference", lambda: corrupted)
    code, out, result = _run(capsys)
    assert code == 0
    assert result["failed"] > 0 and not result["correct"]
    share = next(line for line in out if line.startswith("failed_share"))
    assert float(share.split()[1]) > 0


def test_missing_sources_exit_nonzero_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
