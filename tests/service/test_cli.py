"""repro-serve: jobs files in, durable stores and status lines out."""

import json

import numpy as np
import pytest

from repro.crawl.partition import crawl_partitioned, partition_space
from repro.datasets.io import save_csv
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.server import TopKServer
from repro.service.__main__ import main
from repro.service.store import ResultStore

K = 16
WORKERS = 2


def cli_dataset(seed=7, n=90):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 4), ("body", 2)],
        ["price"],
        numeric_bounds=[(0, 149)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 5, n),
            rng.integers(1, 3, n),
            rng.integers(0, 150, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return cli_dataset()


@pytest.fixture(scope="module")
def standalone(dataset):
    plan = partition_space(dataset.space, WORKERS)
    sources = [
        TopKServer(dataset, K, priority_seed=0) for _ in range(WORKERS)
    ]
    return crawl_partitioned(sources, plan)


@pytest.fixture
def workdir(tmp_path, dataset):
    save_csv(dataset, tmp_path / "demo.csv")
    return tmp_path


def write_jobs(workdir, payload):
    path = workdir / "jobs.json"
    path.write_text(json.dumps(payload))
    return str(path)


def two_tenant_jobs(workdir):
    return write_jobs(
        workdir,
        {
            "tenants": {"acme": {"budget": 50_000}, "umbrella": {}},
            "jobs": [
                {
                    "tenant": tenant,
                    "name": "demo",
                    "csv": str(workdir / "demo.csv"),
                    "k": K,
                    "algorithm": "hybrid",
                    "workers": WORKERS,
                }
                for tenant in ("acme", "umbrella")
            ],
        },
    )


class TestRun:
    def test_run_completes_both_tenants(self, workdir, capsys):
        jobs = two_tenant_jobs(workdir)
        code = main(
            ["run", jobs, "--store", str(workdir / "crawl.db")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "acme/demo: done" in out
        assert "umbrella/demo: done" in out

    def test_rerun_resumes_instantly(self, workdir, capsys):
        jobs = two_tenant_jobs(workdir)
        store = str(workdir / "crawl.db")
        assert main(["run", jobs, "--store", store]) == 0
        capsys.readouterr()
        assert main(["run", jobs, "--store", store]) == 0
        assert "done" in capsys.readouterr().out

    def test_failed_job_exits_nonzero(self, workdir, capsys):
        # DFS rejects mixed spaces: the job fails, the run reports it.
        jobs = write_jobs(
            workdir,
            {
                "tenants": {"acme": {}},
                "jobs": [
                    {
                        "tenant": "acme",
                        "name": "doomed",
                        "csv": str(workdir / "demo.csv"),
                        "k": K,
                        "algorithm": "dfs",
                    }
                ],
            },
        )
        code = main(
            ["run", jobs, "--store", str(workdir / "crawl.db")]
        )
        assert code == 1
        assert "acme/doomed: failed" in capsys.readouterr().out


class TestReadOnlyCommands:
    def test_status_lists_jobs(self, workdir, capsys):
        jobs = two_tenant_jobs(workdir)
        store = str(workdir / "crawl.db")
        assert main(["run", jobs, "--store", store]) == 0
        capsys.readouterr()
        assert main(["status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "acme/demo: done" in out
        assert "umbrella/demo: done" in out
        assert main(["status", "--store", store, "--tenant", "acme"]) == 0
        assert "umbrella" not in capsys.readouterr().out

    def test_status_empty_store(self, workdir, capsys):
        assert (
            main(["status", "--store", str(workdir / "empty.db")]) == 0
        )
        assert "no jobs" in capsys.readouterr().out

    def test_rows_match_the_standalone_crawl(
        self, workdir, capsys, standalone
    ):
        jobs = two_tenant_jobs(workdir)
        store = str(workdir / "crawl.db")
        assert main(["run", jobs, "--store", store]) == 0
        capsys.readouterr()
        out_path = workdir / "rows.csv"
        code = main(
            [
                "rows",
                "--store",
                store,
                "--tenant",
                "acme",
                "--name",
                "demo",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        written = [
            tuple(int(v) for v in line.split(","))
            for line in out_path.read_text().splitlines()
        ]
        assert written == list(standalone.rows)

    def test_rows_unknown_job(self, workdir, capsys):
        code = main(
            [
                "rows",
                "--store",
                str(workdir / "empty.db"),
                "--tenant",
                "ghost",
                "--name",
                "nope",
            ]
        )
        assert code == 2
        assert "no job" in capsys.readouterr().err


class TestBadInput:
    def test_missing_jobs_file(self, workdir, capsys):
        code = main(
            [
                "run",
                str(workdir / "absent.json"),
                "--store",
                str(workdir / "crawl.db"),
            ]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_empty_jobs(self, workdir, capsys):
        jobs = write_jobs(workdir, {"tenants": {}, "jobs": []})
        code = main(
            ["run", jobs, "--store", str(workdir / "crawl.db")]
        )
        assert code == 2
        assert "declares no jobs" in capsys.readouterr().err

    def test_entry_missing_field(self, workdir, capsys):
        jobs = write_jobs(
            workdir,
            {
                "tenants": {"acme": {}},
                "jobs": [{"tenant": "acme", "name": "demo"}],
            },
        )
        code = main(
            ["run", jobs, "--store", str(workdir / "crawl.db")]
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, message",
        [
            # A retired or misspelt key would silently run another crawl.
            ({"max_queries": 400}, "unknown key 'max_queries'"),
            ({"csv": "absent.csv"}, "cannot load absent.csv"),
            ({"algorithm": "magic"}, "unknown algorithm 'magic'"),
        ],
        ids=["retired-key", "missing-csv", "unknown-algorithm"],
    )
    def test_bad_entry_submits_nothing(self, workdir, capsys, bad, message):
        entry = {"tenant": "acme", "csv": str(workdir / "demo.csv"), "k": K}
        jobs = write_jobs(
            workdir,
            {
                "tenants": {"acme": {}},
                "jobs": [
                    {**entry, "name": "fine"},
                    {**entry, "name": "bad", **bad},
                ],
            },
        )
        store = workdir / "crawl.db"
        assert main(["run", jobs, "--store", str(store)]) == 2
        assert message in capsys.readouterr().err
        with ResultStore(store) as opened:
            assert opened.list_jobs() == []

    def test_missing_csv(self, workdir, capsys):
        jobs = write_jobs(
            workdir,
            {
                "tenants": {"acme": {}},
                "jobs": [
                    {
                        "tenant": "acme",
                        "name": "demo",
                        "csv": str(workdir / "absent.csv"),
                        "k": K,
                    }
                ],
            },
        )
        code = main(
            ["run", jobs, "--store", str(workdir / "crawl.db")]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err
