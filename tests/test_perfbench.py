"""The benchmark's workloads run one checked batch each against this package.

``perfbench/workloads.py`` calls the package directly (``hardness``,
``truncation``, ``cli.main``); a name it uses that goes missing, or a change
that breaks its expected answers, fails here rather than only in a benchmark
run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_a_clean_batch(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.WORKLOADS
    for cls in workloads.WORKLOADS:
        workdir = tmp_path / cls.name
        workdir.mkdir()
        workload = cls(1, workdir)
        workload.setup()
        workload.prepare()
        workload.bind(workloads.Context())
        verdict = workload.check(0, workload.run(0))
        assert verdict.failed == 0, cls.name
        assert verdict.ops == workload.ops_per_batch()
