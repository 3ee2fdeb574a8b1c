"""Full-simulation behaviour on an unreliable interconnect."""

from dataclasses import asdict

import pytest

from repro.cluster import ClusterConfig
from repro.experiments import run_netfault_simulation
from repro.faults import FaultSchedule, RetryPolicy
from repro.model import MB
from repro.netfaults import NetFaultConfig, NetFaultSchedule, RetrySpec
from repro.servers import make_policy
from repro.sim import Simulation
from repro.workload import build_fileset, generate_trace


@pytest.fixture(scope="module")
def trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=13, name="nftrace")
    return generate_trace(fs, 4000, seed=14, name="nftrace")


def cfg(nodes=4, **kw):
    kw.setdefault("cache_bytes", 2 * MB)
    kw.setdefault("multiprogramming_per_node", 8)
    return ClusterConfig(nodes=nodes, **kw)


def result_of(trace, policy, config, **kw):
    sim = run_netfault_simulation(trace, policy, config, **kw)
    return sim, sim._result


def test_inert_config_is_byte_identical_to_no_config(trace):
    """Zero-knob guarantee: an inert NetFaultConfig changes nothing."""
    _, base = result_of(trace, "lard", cfg(net_faults=None))
    _, inert = result_of(trace, "lard", cfg(net_faults=NetFaultConfig()))
    assert asdict(base) == asdict(inert)


def test_inert_identity_holds_on_the_generator_lifecycle(trace, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    _, base = result_of(trace, "l2s", cfg(net_faults=None))
    _, inert = result_of(trace, "l2s", cfg(net_faults=NetFaultConfig()))
    assert asdict(base) == asdict(inert)


def test_lossy_run_is_deterministic_for_a_seed(trace):
    nf = NetFaultConfig(loss_rate=0.01, dup_rate=0.002, seed=3)
    _, a = result_of(trace, "l2s", cfg(net_faults=nf))
    _, b = result_of(trace, "l2s", cfg(net_faults=nf))
    assert asdict(a) == asdict(b)
    assert a.message_stats  # per-kind counters present on netfault runs
    assert sum(
        row.get("dropped", 0) for row in a.message_stats.values()
    ) > 0


def test_lossy_run_reconciliation_books_close(trace):
    nf = NetFaultConfig(loss_rate=0.02, dup_rate=0.005, seed=5)
    _, r = result_of(trace, "lard", cfg(net_faults=nf))
    recon = r.message_reconciliation()
    assert recon and all(v == 0 for v in recon.values())
    assert r.netfault_summary["drop_causes"].get("loss", 0) > 0


def test_partition_heal_triggers_l2s_reannounce(trace):
    # Calibration twin: protocol on, fabric perfect — learns where the
    # measured window of the partition run will land.
    calib, _ = result_of(
        trace,
        "l2s",
        cfg(net_faults=NetFaultConfig(always_on=True)),
        view_max_age_s=0.2,
    )
    boundary = calib._measure_start
    span = calib._last_completion - boundary
    assert span > 0
    sched = NetFaultSchedule.partition(
        (0,), boundary + 0.3 * span, boundary + 0.6 * span
    )
    sim, r = result_of(
        trace,
        "l2s",
        cfg(net_faults=NetFaultConfig(schedule=sched)),
        view_max_age_s=0.2,
    )
    summary = r.netfault_summary
    assert summary["partitions"] == 1
    assert summary["heals"] == 1
    assert r.policy_stats["heal_reannounces"] >= 1
    assert summary["drop_causes"].get("partition", 0) > 0


def test_admission_control_sheds_under_netfaults(trace):
    config = cfg(
        net_faults=NetFaultConfig(always_on=True),
        admission_threshold=1,
        multiprogramming_per_node=16,
    )
    sim, r = result_of(trace, "l2s", config)
    assert r.requests_shed > 0
    assert r.requests_shed == sum(n.shed for n in sim.cluster.nodes)


def test_partitioned_dfs_falls_back_to_local_replica(trace):
    nf = NetFaultConfig(
        loss_rate=0.3,
        seed=2,
        default_spec=RetrySpec(
            timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
        ),
    )
    sim, r = result_of(
        trace, "traditional", cfg(net_faults=nf, replicated_disks=False)
    )
    assert sim.cluster.dfs.local_fallbacks > 0
    assert r.netfault_summary["dfs_local_fallbacks"] > 0
    # Degraded reads, not client-visible errors.
    assert r.requests_measured > 0


def test_partitioned_dfs_without_fallback_fails_requests(trace):
    nf = NetFaultConfig(
        loss_rate=0.3,
        seed=2,
        dfs_local_fallback=False,
        default_spec=RetrySpec(
            timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0
        ),
    )
    sim, r = result_of(
        trace, "traditional", cfg(net_faults=nf, replicated_disks=False)
    )
    assert sim.cluster.dfs.remote_failures > 0
    assert r.requests_failed > 0


def test_netfault_and_async_decide_runs_take_the_fast_path(trace):
    nf = NetFaultConfig(loss_rate=0.01)
    for policy in ("lard", "lard-ng"):
        for net_faults in (nf, None):
            sim = Simulation(
                trace, make_policy(policy), cfg(net_faults=net_faults), passes=2
            )
            assert sim._fastpath, (policy, net_faults)
    # Client timeouts and the partitioned DFS keep the generator path.
    sim = Simulation(
        trace,
        make_policy("lard"),
        cfg(net_faults=nf),
        retry=RetryPolicy(max_retries=1, timeout_s=0.5),
    )
    assert not sim._fastpath
    sim = Simulation(
        trace, make_policy("lard"), cfg(net_faults=nf, replicated_disks=False)
    )
    assert not sim._fastpath


# -- callback chain == generator lifecycle -------------------------------------

#: Roughly the simulated seconds the small equivalence trace below takes
#: on a protocol-on, perfect fabric (lard, 4 nodes: about 2.6 s);
#: schedules are placed at fractions of it so they land inside the run.
HORIZON_S = 2.0


@pytest.fixture(scope="module")
def small_trace():
    fs = build_fileset(250, 15 * 1024, 12 * 1024, 0.9, seed=13, name="nfeq")
    return generate_trace(fs, 1000, seed=14, name="nfeq")


def _fabric(name):
    t = HORIZON_S
    if name == "loss":
        return NetFaultConfig(loss_rate=0.03, seed=1)
    if name == "dup":
        return NetFaultConfig(dup_rate=0.02, loss_rate=0.005, seed=2)
    if name == "delay":
        return NetFaultConfig(extra_delay_s=2e-4, loss_rate=0.005, seed=3)
    if name == "jitter":
        return NetFaultConfig(jitter_s=3e-4, loss_rate=0.005, seed=4)
    if name == "partition":
        sched = NetFaultSchedule.partition((1,), 0.3 * t, 0.6 * t)
        return NetFaultConfig(schedule=sched, seed=5)
    if name == "link_out":
        sched = NetFaultSchedule.parse(f"link:0-2@{0.2 * t}..{0.7 * t}")
        # A short retry budget so lost hand-offs exhaust and re-dispatch.
        spec = RetrySpec(timeout_s=1e-3, max_retries=1, base_backoff_s=0.0, cap_s=0.0)
        return NetFaultConfig(schedule=sched, loss_rate=0.05, seed=6, default_spec=spec)
    raise AssertionError(name)


def _both_lifecycles(monkeypatch, trace, policy, config, **kw):
    results = []
    for fastpath in ("1", "0"):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", fastpath)
        sim = Simulation(
            trace, make_policy(policy), config, warmup_fraction=0.2, seed=3, **kw
        )
        assert sim._fastpath == (fastpath == "1")
        results.append(asdict(sim.run()))
    return results


@pytest.mark.parametrize("policy", ["traditional", "lard", "l2s", "lard-ng"])
@pytest.mark.parametrize(
    "fabric", ["loss", "dup", "delay", "jitter", "partition", "link_out"]
)
def test_fastpath_matches_generator_lifecycle(monkeypatch, small_trace, fabric, policy):
    fast, slow = _both_lifecycles(
        monkeypatch, small_trace, policy, cfg(net_faults=_fabric(fabric))
    )
    assert fast == slow
    assert fast["netfault_summary"]


def test_equivalence_fixtures_reach_retries_and_redispatch(small_trace):
    """The link_out fabric above drives the reliable-messaging branches."""
    sim = Simulation(
        small_trace,
        make_policy("lard-ng"),
        cfg(net_faults=_fabric("link_out")),
        warmup_fraction=0.2,
        seed=3,
    )
    assert sim._fastpath
    fast = asdict(sim.run())
    stats = fast["message_stats"]
    assert stats["handoff"]["retries"] > 0
    assert stats["lardng_query"]["retries"] > 0
    assert fast["netfault_summary"]["redispatches"] > 0


@pytest.mark.parametrize("policy", ["lard", "lard-ng"])
def test_fastpath_matches_generator_lifecycle_sanitized(
    monkeypatch, small_trace, policy
):
    fast, slow = _both_lifecycles(
        monkeypatch,
        small_trace,
        policy,
        cfg(net_faults=_fabric("loss")),
        sanitize=True,
    )
    assert fast == slow


@pytest.mark.parametrize("policy", ["l2s", "lard-ng"])
def test_fastpath_matches_generator_lifecycle_crash_in_partition(
    monkeypatch, small_trace, policy
):
    t = HORIZON_S
    faults = FaultSchedule.crash_and_recover(2, 0.4 * t, 0.5 * t)
    fast, slow = _both_lifecycles(
        monkeypatch,
        small_trace,
        policy,
        cfg(net_faults=_fabric("partition")),
        faults=faults,
        retry=RetryPolicy(max_retries=2),
    )
    assert fast == slow
    assert fast["requests_failed"] + fast["requests_retried"] > 0
