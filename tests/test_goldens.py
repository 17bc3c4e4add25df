"""Plans, result bytes and untimed stats equal their goldens (see ``goldens.py``)."""

import json

import goldens


def _golden(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_corpus_query_plans_or_is_refused_as_its_golden_says():
    changed = {text: got for text, want in _golden(goldens.PLANS).items()
               if (got := goldens.planned(text)) != want}
    assert changed == {}


def test_every_workload_gives_its_golden_result_bytes_and_untimed_stats():
    assert goldens.workload_digests() == _golden(goldens.WORKLOADS)
