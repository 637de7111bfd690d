"""Byte identity of the reports: every group of ``scripts/report_digest.py``
against the digest committed in ``scripts/report_digests.txt``."""

import re

import pytest

import report_digest

RECORDED_VERSIONS, RECORDED = report_digest.recorded()


@pytest.mark.parametrize("group", report_digest.GROUPS)
def test_group_digest(group):
    assert report_digest.digest_line(group) == RECORDED.get(group), (
        f"the {group} outputs moved: recorded with {RECORDED_VERSIONS}, "
        f"running {report_digest.versions()}; a change meant to move them "
        "re-takes scripts/report_digests.txt"
    )


def test_timings_go_to_stderr(capsys, monkeypatch):
    monkeypatch.setitem(report_digest.GROUPS, "tiny", lambda: iter(["a", "b"]))
    assert report_digest.main(["tiny"]) == 0
    out, err = capsys.readouterr()
    assert out == f"# {report_digest.versions()}\n{report_digest.digest_line('tiny')}\n"
    assert re.fullmatch(r"tiny \d+\.\d\d s\n", err)
