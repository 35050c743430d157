import pandas as pd

import checks


def _method(**kw):
    args = dict(n_pairs=50, n_found=10, n_candidates=100, block_found=12,
                cep_K=40, local=(50, 10))
    args.update(kw)
    return checks.check_method("op", "BCl", **args)


def test_agreeing_result_passes():
    assert _method() == []
    assert checks.summarize([]) == (0, True)


def test_doctored_engine_disagreement_counts_as_failed_not_incorrect():
    findings = _method(n_pairs=51)
    assert [f.kind for f in findings] == ["engines"]
    assert checks.summarize(findings) == (1, True)


def test_doctored_invariants_make_the_run_incorrect():
    assert [f.kind for f in _method(n_pairs=101, local=None)] == ["invariant"]
    assert [f.kind for f in _method(n_found=13, local=None)] == ["invariant"]
    assert [f.kind for f in _method(n_found=51, n_pairs=50, block_found=60, local=None)] == ["invariant"]
    cep = checks.check_method("cep", "CEP", n_pairs=41, n_found=10, n_candidates=100,
                              block_found=12, cep_K=40)
    assert [f.kind for f in cep] == ["invariant"]
    assert checks.summarize(cep) == (1, False)


def test_failed_counts_each_operation_once():
    findings = _method(n_pairs=101) + checks.check_candidates("d", 5, 6)
    assert {f.kind for f in findings} == {"invariant", "engines"}
    assert checks.summarize(findings) == (1, False)


def test_sweep_rows_out_of_bounds():
    rows = pd.DataFrame({"fid": [1, 2, 3], "recall": [0.5, 0.95, 0.2],
                         "precision": [0.1, 0.1, 1.5], "f1": [0.1, 0.2, 0.3]})
    findings = checks.check_sweep_rows("sw", rows, block_recall=0.9)
    assert [f.op for f in findings] == ["sw:fid2", "sw:fid3"]


def test_distinct_candidates_clean_and_dirty():
    asg = pd.DataFrame({
        "token": ["a", "a", "a", "b", "b", "c"],
        "entity_id": [1, 2, 3, 1, 2, 3],
        "source": [1, 2, 2, 1, 2, 1],
    })
    # clean: (1,2) twice, (1,3) -> 2 distinct pairs
    assert checks.distinct_candidates(asg, "clean") == 2
    # dirty: block a gives (1,2),(1,3),(2,3); block b repeats (1,2)
    assert checks.distinct_candidates(asg, "dirty") == 3
