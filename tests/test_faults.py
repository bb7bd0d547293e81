"""Fault injection: the switchboard itself, and chaos ≡ clean-run covers.

The recovery claims under test:

* engines that arm the step guard re-enqueue a pristine pre-step copy on
  an injected reduce/branch raise and still return the clean optimum;
* the ``cpu-process`` supervisor (the socket coordinator with local
  worker threads) survives ``worker_kill`` (re-enqueueing leased
  sub-trees, respawning, degrading to an inline drain when every slot
  dies) and still returns the clean optimum;
* ``queue_delay`` only widens races, never changes answers.
"""

import warnings

import pytest

from repro import faults
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import solve_mvc, solve_pvc
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends with the switchboard disarmed."""
    faults.clear()
    yield
    faults.clear()


class TestSpecParsing:
    def test_single_site(self):
        plan = faults.parse_fault_spec("worker_kill:0.5")
        rule = plan.rules["worker_kill"]
        assert rule.probability == 0.5 and rule.max_fires is None

    def test_multi_site_with_caps(self):
        plan = faults.parse_fault_spec("reduce_raise:0.1:2, branch_raise:0.05")
        assert plan.sites() == {"reduce_raise", "branch_raise"}
        assert plan.rules["reduce_raise"].max_fires == 2

    def test_spec_round_trips(self):
        spec = "worker_kill:0.25:1,queue_delay:0.5"
        assert faults.parse_fault_spec(spec).spec() == spec

    @pytest.mark.parametrize("bad", [
        "unknown_site:0.5", "worker_kill", "worker_kill:nope",
        "worker_kill:1.5", "worker_kill:-0.1", "worker_kill:0.5:0",
        "worker_kill:0.5:x", "", ",,",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            faults.parse_fault_spec(bad)

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            faults.parse_fault_spec("queue_delay:0.1,queue_delay:0.2")

    def test_plan_from_env(self):
        env = {"REPRO_FAULT": "branch_raise:0.125", "REPRO_FAULT_SEED": "7"}
        plan = faults.plan_from_env(env)
        assert plan.seed == 7 and plan.sites() == {"branch_raise"}
        assert faults.plan_from_env({}) is None
        assert faults.plan_from_env({"REPRO_FAULT": "  "}) is None


class TestSwitchboard:
    def test_inert_without_plan(self):
        assert not faults.active() and not faults.step_guard_active()
        faults.fire("reduce_raise")  # must be a no-op, not a raise

    def test_injected_scopes_and_restores(self):
        with faults.injected("queue_delay:1.0"):
            assert faults.active()
            with faults.injected("branch_raise:0.0"):
                assert faults.current_plan().sites() == {"branch_raise"}
            assert faults.current_plan().sites() == {"queue_delay"}
        assert not faults.active()

    def test_step_guard_only_for_step_sites(self):
        with faults.injected("worker_kill:0.5,queue_delay:0.5"):
            assert faults.active() and not faults.step_guard_active()
        with faults.injected("reduce_raise:0.01"):
            assert faults.step_guard_active()

    def test_firing_is_deterministic_per_seed_and_salt(self):
        def pattern(seed, salt, n=64):
            plan = faults.parse_fault_spec("branch_raise:0.3", seed=seed)
            plan.reseed(salt)
            return [plan.rules["branch_raise"].should_fire() for _ in range(n)]

        assert pattern(1, 0) == pattern(1, 0)
        assert pattern(1, 0) != pattern(2, 0)
        assert pattern(1, 0) != pattern(1, 1)

    def test_max_fires_caps_the_stream(self):
        plan = faults.parse_fault_spec("branch_raise:1.0:3")
        rule = plan.rules["branch_raise"]
        assert sum(rule.should_fire() for _ in range(10)) == 3
        plan.reseed(5)  # reseeding resets the cap
        assert rule.should_fire()

    def test_fire_raises_step_sites(self):
        with faults.injected("reduce_raise:1.0"):
            with pytest.raises(faults.FaultInjected):
                faults.fire("reduce_raise")


CHAOS_GRAPHS = [
    ("gnp30", gnp(30, 0.15, seed=7)),
    ("phat20", phat_complement(20, 2, seed=4)),
    ("grid55", grid_graph(5, 5)),
]


def _expected(graph):
    return solve_mvc_sequential(graph).optimum


class TestStepFaultRecovery:
    @pytest.mark.parametrize("site", ["reduce_raise", "branch_raise"])
    def test_sequential_recovers(self, site):
        graph = gnp(26, 0.3, seed=2)
        expected = _expected(graph)
        with faults.injected(f"{site}:0.3:4", seed=1):
            out = solve_mvc_sequential(graph)
        assert out.optimum == expected
        assert out.stats.extra.get("faults_recovered", 0) > 0

    @pytest.mark.parametrize("engine", ["cpu-threads"])
    def test_thread_engines_recover(self, engine):
        graph = gnp(26, 0.3, seed=2)
        expected = _expected(graph)
        with faults.injected("branch_raise:0.3:6", seed=1):
            out = solve_mvc(graph, engine=engine, n_workers=2)
        assert out.optimum == expected
        assert out.supervision["recovered"] > 0

    def test_clean_run_reports_no_recoveries(self):
        out = solve_mvc_sequential(gnp(20, 0.3, seed=1))
        assert "faults_recovered" not in out.stats.extra

    def test_resumed_legs_accumulate_recoveries(self):
        """Two budgeted legs over one ``SearchStats`` report the sum of
        both legs' recoveries, not the last leg's.  Every node faults
        until the cap of 3: two in the first 2-node leg, one more in the
        second."""
        from repro.core.formulation import BestBound, MVCFormulation
        from repro.core.frontier import LifoFrontier
        from repro.core.sequential import branch_and_reduce
        from repro.core.stats import SearchStats

        graph = gnp(26, 0.3, seed=2)
        formulation = MVCFormulation(BestBound(size=graph.n))
        frontier = LifoFrontier()
        stats = SearchStats()
        with faults.injected("reduce_raise:1.0:3", seed=1):
            branch_and_reduce(graph, formulation, frontier=frontier,
                              stats=stats, node_budget=2)
            assert stats.extra["faults_recovered"] == 2
            root, _ = frontier.pop()
            branch_and_reduce(graph, formulation, root=root, frontier=frontier,
                              stats=stats, node_budget=4)
        assert stats.extra["faults_recovered"] == 3
        assert stats.nodes_visited == 4


class TestProcessWorkerChaos:
    @pytest.mark.parametrize("name,graph", CHAOS_GRAPHS)
    def test_worker_kill_still_optimal(self, name, graph):
        expected = _expected(graph)
        with faults.injected("worker_kill:0.5:3", seed=11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = solve_mvc(graph, engine="cpu-process", n_workers=2,
                                threshold=4)
        assert out.optimum == expected, name
        assert out.supervision["workers_lost"] > 0, f"{name}: no kills fired; test is vacuous"

    def test_pvc_survives_worker_kill(self):
        graph = gnp(30, 0.15, seed=7)
        expected = _expected(graph)
        with faults.injected("worker_kill:0.5:3", seed=11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = solve_pvc(graph, expected, engine="cpu-process",
                                n_workers=2, threshold=4)
        assert out.feasible is True and out.optimum <= expected

    def test_queue_delay_preserves_answers(self):
        graph = gnp(24, 0.2, seed=5)
        expected = _expected(graph)
        with faults.injected("queue_delay:0.5", seed=2):
            out = solve_mvc(graph, engine="cpu-process", n_workers=2,
                            threshold=4)
        assert out.optimum == expected and out.supervision["workers_lost"] == 0

    def test_step_raise_inside_workers_recovers(self):
        graph = gnp(26, 0.3, seed=2)
        expected = _expected(graph)
        with faults.injected("reduce_raise:0.3:4", seed=3):
            out = solve_mvc(graph, engine="cpu-process", n_workers=2,
                            threshold=4)
        assert out.optimum == expected

    def test_degradation_warns_loudly(self):
        graph = gnp(30, 0.15, seed=7)
        with faults.injected("worker_kill:0.95:8", seed=1):
            with pytest.warns(RuntimeWarning) as caught:
                out = solve_mvc(graph, engine="cpu-process", n_workers=2,
                                threshold=4)
        assert any("died" in str(w.message) for w in caught)
        assert out.optimum == _expected(graph)


class TestAnytimeUnderChaos:
    """The two robustness layers compose: chaos + deadline + resume."""

    def test_injected_solve_reports_recoveries(self):
        graph = gnp(26, 0.3, seed=2)
        with faults.injected("branch_raise:0.3:4", seed=1):
            out = solve_mvc(graph, engine="sequential")
        assert out.status == "optimal"
        assert out.optimum == _expected(graph)
        assert out.supervision["recovered"] > 0

    def test_chaos_checkpoint_resumes_clean(self):
        from repro.core.anytime import resume_from

        graph = gnp(30, 0.15, seed=7)
        expected = _expected(graph)
        with faults.injected("worker_kill:0.5:3", seed=11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                tripped = solve_mvc(graph, engine="cpu-process",
                                        deadline=0.0, n_workers=2, threshold=4)
        # plan is now cleared: the resume runs clean
        final = tripped
        while not final.complete:
            final = resume_from(final.checkpoint, graph, n_workers=2,
                                threshold=4)
        assert final.optimum == expected
