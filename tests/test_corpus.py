"""The shared built-in families: one instance per name and process, whose
term cache serves every question, and which no question changes."""

import pytest

from linfweak import corpus
from linfweak.cli import run
from linfweak.corpus import FAMILIES, family_by_name
from linfweak.problemfile import parse_problem_text

NAMES = sorted(FAMILIES)


def _same_term(got, want):
    if hasattr(want, "pieces"):
        return got.domain == want.domain and got.pieces == want.pieces
    # sin-reciprocal terms are enclosure handles
    return (got.k, got.domain) == (want.k, want.domain)


def test_all_twelve_names_are_registered():
    assert len(NAMES) == 12


@pytest.mark.parametrize("name", NAMES)
def test_family_by_name_shares_one_instance(name):
    assert family_by_name(name) is family_by_name(name)
    assert family_by_name(name).name == name


@pytest.mark.parametrize("name", NAMES)
def test_factories_build_a_new_family_on_each_call(name):
    """The values of FAMILIES are the factory functions (`corpus.tents`, ...)."""
    shared = family_by_name(name)
    a, b = FAMILIES[name](), FAMILIES[name]()
    assert a is not b and shared is not a and shared is not b


def test_unknown_name_raises_and_registers_nothing():
    before = dict(corpus._SHARED)
    with pytest.raises(KeyError, match="unknown family 'nope'"):
        family_by_name("nope")
    assert corpus._SHARED == before and "nope" not in corpus._SHARED


def test_a_corpus_run_changes_no_shared_family():
    shared = {name: family_by_name(name) for name in NAMES}
    attrs = {name: (f.domain, f.name, f.norm_bound, f.certificates)
             for name, f in shared.items()}
    report = run(parse_problem_text("task = corpus\n"))
    assert report.result["failures"] == 0
    for name, fam in shared.items():
        assert family_by_name(name) is fam
        now = (fam.domain, fam.name, fam.norm_bound, fam.certificates)
        assert all(x is y for x, y in zip(now, attrs[name])), name
        assert fam._cache, f"{name}: the corpus run built no term"


@pytest.mark.parametrize("name", NAMES)
def test_cached_terms_equal_fresh_builds(name):
    run(parse_problem_text(f"task = weaknull\nfamily = {name}\n"))
    shared, fresh = family_by_name(name), FAMILIES[name]()
    assert shared._cache
    for k, term in sorted(shared._cache.items()):
        assert _same_term(term, fresh.term(k)), (name, k)
