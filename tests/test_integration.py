"""Cross-package integration: the full stack, composed every which way.

Each test here wires at least three packages together (web + crawl +
theory, analytics + server + limits, ...) and asserts an end-to-end
invariant no unit test can see.
"""

import numpy as np
from hypothesis import given, settings

from repro.crawl.hybrid import Hybrid
from repro.crawl.verify import assert_complete
from repro.dataspace.dataset import Dataset
from repro.discovery.domains import discover_domains
from repro.server.client import CachingClient
from repro.server.server import TopKServer
from repro.web.adapter import WebSession
from repro.web.site import HiddenWebSite
from tests.conftest import small_instances


class TestWebParityProperty:
    """Crawling over HTML is information-identical to direct crawling."""

    @given(instance=small_instances(max_dim=3, max_domain=4))
    @settings(max_examples=25, deadline=None)
    def test_hybrid_parity_on_random_instances(self, instance):
        dataset, k = instance
        direct = Hybrid(TopKServer(dataset, k)).crawl()
        session = WebSession(HiddenWebSite(TopKServer(dataset, k)))
        via_web = Hybrid(CachingClient(session)).crawl()
        assert via_web.cost == direct.cost
        assert sorted(via_web.rows) == sorted(direct.rows)
        assert_complete(via_web, dataset)


class TestEngineCrawlEquivalence:
    """Every engine behind the server yields the same crawl, bit for bit."""

    def test_engines_agree_at_crawl_level(self):
        rng = np.random.default_rng(13)
        from repro.dataspace.space import DataSpace

        space = DataSpace.mixed([("c1", 5), ("c2", 3)], ["v"])
        rows = np.column_stack(
            [
                rng.integers(1, 6, 500),
                rng.integers(1, 4, 500),
                rng.integers(0, 3000, 500),
            ]
        ).astype(np.int64)
        dataset = Dataset(space, rows)
        results = {
            engine: Hybrid(TopKServer(dataset, k=16, engine=engine)).crawl()
            for engine in ("linear", "vector")
        }
        reference = results["linear"]
        for engine, result in results.items():
            assert result.cost == reference.cost, engine
            assert result.rows == reference.rows, engine


class TestDiscoveryOverWeb:
    """Domain discovery runs against the HTML interface unchanged."""

    def test_discovered_domains_match_menus(self):
        rng = np.random.default_rng(3)
        from repro.dataspace.space import DataSpace

        space = DataSpace.categorical([4, 6])
        rows = np.column_stack(
            [rng.integers(1, 5, 300), rng.integers(1, 7, 300)]
        ).astype(np.int64)
        dataset = Dataset(space, rows)
        session = WebSession(HiddenWebSite(TopKServer(dataset, k=8)))
        report = discover_domains(CachingClient(session), max_queries=500)
        # Every value that occurs in the data must be discovered; the
        # search form's menus independently advertise the full domain.
        for i in range(2):
            occurring = set(int(v) for v in np.unique(dataset.rows[:, i]))
            assert report.values[i] >= occurring
            assert session.space[i].domain_size == space[i].domain_size


class TestAdversaryOverWeb:
    """An adversarial backend behind the website changes nothing."""

    def test_site_over_adversarial_server(self):
        from repro.theory.adversary import (
            AdversarialTopKServer,
            RankByAttributePolicy,
        )

        rng = np.random.default_rng(21)
        from repro.dataspace.space import DataSpace

        space = DataSpace.mixed([("c", 3)], ["v"])
        rows = np.column_stack(
            [rng.integers(1, 4, 200), rng.integers(0, 900, 200)]
        ).astype(np.int64)
        dataset = Dataset(space, rows)
        backend = AdversarialTopKServer(dataset, 8, RankByAttributePolicy(1))
        session = WebSession(HiddenWebSite(backend))
        result = Hybrid(CachingClient(session)).crawl()
        assert_complete(result, dataset)
