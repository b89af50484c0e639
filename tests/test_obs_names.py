"""CI lint: every metric emit site uses a name declared in repro.obs.names.

Metric names are stringly-typed at the emit site, so a rename or typo
silently forks a series.  This lint extracts every string literal passed
to ``inc`` / ``observe`` / ``set_gauge`` across ``src/`` (method calls
included — the regex matches ``registry.inc(...)`` too) and checks it
against the canonical registry:

* a plain literal must be registered exactly or by prefix family;
* an f-string's static prefix must match a registered prefix family
  (dynamic families are declared as prefixes, never left open);
* conversely, every registered exact name must still appear as a quoted
  literal somewhere in ``src/`` — dead registry entries are failures
  too, not dashboard folklore.
"""

import re
from pathlib import Path

import pytest

from repro.obs import names

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Matches inc("...") / observe(f"...") / registry.set_gauge("..."),
#: tolerating newlines between the call and its first argument; the
#: literal capture stops at the first ``{`` so an f-string yields its
#: static prefix.
_EMIT = re.compile(r'\b(inc|observe|set_gauge)\s*\(\s*(f?)"([^"{]*)')

_FAMILY = {
    "inc": (names.is_registered_counter, names.COUNTER_PREFIXES),
    "observe": (names.is_registered_histogram, names.HISTOGRAM_PREFIXES),
    "set_gauge": (names.is_registered_gauge, names.GAUGE_PREFIXES),
}


def _source_files():
    files = [p for p in sorted(SRC.rglob("*.py")) if p.name != "names.py"]
    assert files, f"no sources under {SRC}"
    return files


def _emit_sites():
    sites = []
    for path in _source_files():
        text = path.read_text()
        for match in _EMIT.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            func, is_fstring, literal = match.groups()
            sites.append((path, line, func, bool(is_fstring), literal))
    return sites


class TestEmitSitesAreRegistered:
    def test_scan_finds_the_emit_sites(self):
        # The lint is only as good as its extraction: prove it sees the
        # known corners — multiline literals, f-string families, and
        # method calls on explicit registries.
        sites = _emit_sites()
        assert len(sites) > 50
        literals = {literal for *_, literal in sites}
        assert "fleet.query_latency_s" in literals  # multiline observe(
        assert "span." in literals  # f-string family
        assert "fleet.tick_s" in literals  # method call on a registry

    def test_every_emit_site_uses_a_declared_name(self):
        violations = []
        for path, line, func, is_fstring, literal in _emit_sites():
            is_registered, prefixes = _FAMILY[func]
            if is_fstring:
                ok = bool(literal) and any(
                    literal.startswith(p) or p.startswith(literal)
                    for p in prefixes
                )
            else:
                ok = is_registered(literal)
            if not ok:
                violations.append(
                    f"{path.relative_to(SRC.parent.parent)}:{line}: "
                    f"{func}({'f' if is_fstring else ''}\"{literal}...\") "
                    f"not declared in repro.obs.names"
                )
        assert not violations, "\n".join(violations)

    def test_no_registered_name_is_dead(self):
        # Every exact entry must still appear as a quoted literal in
        # src/ (conditional emits pass string literals the emit-site
        # regex cannot see, so this scans for the quoted name itself).
        corpus = "\n".join(p.read_text() for p in _source_files())
        dead = [
            name
            for family in (names.COUNTERS, names.HISTOGRAMS, names.GAUGES)
            for name in sorted(family)
            if f'"{name}"' not in corpus
        ]
        assert not dead, f"registered but unused: {dead}"

    def test_every_prefix_family_has_an_emit_site(self):
        fstring_prefixes = {
            literal
            for _, _, _, is_fstring, literal in _emit_sites()
            if is_fstring
        }
        for prefixes in (
            names.COUNTER_PREFIXES,
            names.HISTOGRAM_PREFIXES,
            names.GAUGE_PREFIXES,
        ):
            for prefix in prefixes:
                assert any(
                    literal.startswith(prefix) or prefix.startswith(literal)
                    for literal in fstring_prefixes
                ), f"registered family {prefix!r} has no f-string emit site"


class TestRegistryHelpers:
    @pytest.mark.parametrize(
        "checker,exact,prefixed",
        [
            (
                names.is_registered_counter,
                "fleet.queries",
                "engine.cache.reduction.hit",
            ),
            (
                names.is_registered_histogram,
                "fleet.query_latency_s",
                "span.syn.search",
            ),
            # Gauges have no computed family: only exact names register.
            (names.is_registered_gauge, "fleet.store.vehicles", None),
        ],
    )
    def test_exact_and_prefix_matching(self, checker, exact, prefixed):
        assert checker(exact)
        if prefixed is None:
            assert not checker(exact + ".extra")
        else:
            assert checker(prefixed)
        assert not checker("totally.unknown.series")

    def test_families_are_disjoint_kinds(self):
        assert not names.COUNTERS & names.HISTOGRAMS
        assert not names.COUNTERS & names.GAUGES
        assert not names.HISTOGRAMS & names.GAUGES
