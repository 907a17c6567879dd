"""The repo's CI tooling, tested like the code it gates."""

from pathlib import Path

from tools.check_no_raw_run import check, main
from tools.compare_bench import compare

CRAWL_DIR = Path(__file__).resolve().parents[1] / "src" / "repro" / "crawl"


class TestCheckNoRawRun:
    def test_current_tree_is_clean(self):
        assert check([CRAWL_DIR]) == []
        assert main([str(CRAWL_DIR)]) == 0

    def test_flags_raw_client_run(self, tmp_path):
        bad = tmp_path / "algo.py"
        bad.write_text(
            "class C:\n"
            "    def _execute(self):\n"
            "        self._client.run(query)\n",
            encoding="utf-8",
        )
        problems = check([tmp_path])
        assert len(problems) == 1
        assert "algo.py:3" in problems[0]
        assert main([str(tmp_path)]) == 1

    def test_flags_run_batch_via_public_client(self, tmp_path):
        bad = tmp_path / "algo.py"
        bad.write_text(
            "def helper(crawler, queries):\n"
            "    return crawler.client.run_batch(queries)\n",
            encoding="utf-8",
        )
        assert len(check([tmp_path])) == 1

    def test_base_py_is_exempt(self, tmp_path):
        allowed = tmp_path / "base.py"
        allowed.write_text(
            "class Crawler:\n"
            "    def _run_query(self, query):\n"
            "        return self._client.run(query)\n",
            encoding="utf-8",
        )
        assert check([tmp_path]) == []

    def test_helper_methods_are_not_flagged(self, tmp_path):
        fine = tmp_path / "algo.py"
        fine.write_text(
            "class C:\n"
            "    def _execute(self):\n"
            "        self._run_battery(queries)\n"
            "        self._run_query(query)\n",
            encoding="utf-8",
        )
        assert check([tmp_path]) == []


class TestCompareBench:
    @staticmethod
    def lease_report(leased, per_query):
        return {
            "coordinator_round_trips": {
                "leased": leased,
                "per_query": per_query,
            },
            "cpu_count": 1,
            "round_trip_reduction": round(per_query / leased, 2),
            "scale": 0.1,
        }

    def test_lease_chatter_growing_on_both_sides_is_flagged(self):
        """The ratio holds at 8.0, inside its floor, yet the leased
        crawl more than doubled its round trips."""
        baseline = self.lease_report(18, 160)
        current = self.lease_report(40, 320)
        regressions, _ = compare(baseline, current, 0.25)
        assert regressions == ["coordinator_round_trips.leased"]
