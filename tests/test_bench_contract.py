"""The benchmark tracer's names must exist in the package.

``bench/tracer.py`` wraps package functions by ``(module, attribute)``; a name
it cannot find is skipped and every metric built on it silently drops out of
the report.  These tests load the tracer by path, without installing it, and
check that each name it wraps is still bound where it looks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

RENAME_RULE = (
    "rename or remove a name that bench/tracer.py wraps only after it has left "
    "the tracer in a benchmark-only change (ROADMAP item 1)"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()


def _bound(module_name, attr):
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    return callable(getattr(module, attr, None))


@pytest.mark.parametrize("module_name, attr, name", tracer.SPANS, ids=[s[2] for s in tracer.SPANS])
def test_every_span_target_is_bound(module_name, attr, name):
    assert _bound(module_name, attr), (
        f"span {name}: {tracer.PACKAGE}.{module_name}.{attr} is not a callable; {RENAME_RULE}"
    )


@pytest.mark.parametrize("name", sorted({name for _, _, name in tracer.COUNTERS}))
def test_every_counter_has_a_call_site(name):
    sites = [(m, a) for m, a, n in tracer.COUNTERS if n == name]
    assert any(_bound(m, a) for m, a in sites), (
        f"counter {name}: none of {sites} is a callable in {tracer.PACKAGE}; {RENAME_RULE}"
    )
