"""The benchmark's sweeps pin the serial case count of each suite, and an
iteration fails when a count differs or a case fails; its point queries call
the engine through ``workloads.answer``.  Either kind of failure, or a
changed engine signature, shows here first instead of in every benchmark
iteration."""


def test_pinned_case_counts(perfbench, suite_report):
    workloads = perfbench("workloads")
    sweeps = [s for s in workloads.WORKLOADS["full"].values() if isinstance(s, workloads.Sweep)]
    assert sweeps
    for sweep in sweeps:
        for name, count in sweep.expect_cases.items():
            report = suite_report(name, sweep.l_values, sweep.box)
            assert report.cases_run == count, (name, sweep.l_values, sweep.box)
            assert not report.failures, (name, report.failures[:3])


def test_smoke_point_queries_are_answered(perfbench):
    workloads = perfbench("workloads")
    queries = workloads.make_queries(workloads.WORKLOADS["smoke"]["point-queries"], 1)
    assert len(queries) == 80
    assert {q.kind for q in queries} == set(workloads.QUERIES_PER_PART)
    failed = [q for q in queries if not workloads.answer(q)]
    assert not failed, failed[:3]


def test_point_queries_read_no_chi_l(perfbench, no_chi_l):
    """A seeded point-query stream expands no chi_l in the basis of induced
    characters: with chi_l_weyl and the Brauer-Klimyk kernel raising, every
    query of the smoke stream is answered."""
    workloads = perfbench("workloads")
    queries = workloads.make_queries(workloads.WORKLOADS["smoke"]["point-queries"], 1)
    failed = [q for q in queries if not workloads.answer(q)]
    assert not failed, failed[:3]
