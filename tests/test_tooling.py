"""Guards for the benchmark's per-layer metrics.

``perfbench/spans.py`` wraps program entry points named by
``"mchks.<module>:<attr.path>"`` site strings; a site that no longer
resolves makes its metrics read null without an error.  The file is read
as text here, so nothing under ``perfbench/`` is imported or changed.
"""

import importlib
import re
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SITE = re.compile(r'"(mchks(?:\.\w+)*:\w+(?:\.\w+)*)"')


def _sites():
    return sorted(set(SITE.findall(SPANS.read_text(encoding="utf-8"))))


def test_spans_names_the_traced_sites():
    assert len(_sites()) >= 20


@pytest.mark.parametrize("site", _sites())
def test_span_site_resolves(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
