"""Unit tests for the workload model."""

import pickle

import numpy as np
import pytest

from repro.config import WorkloadParams
from repro.machines.hardware import build_fleet
from repro.sim.workload import SessionWorkload, WorkloadModel


@pytest.fixture()
def model():
    return WorkloadModel(WorkloadParams())


@pytest.fixture()
def fleet():
    return build_fleet()


class TestPersonality:
    def test_fields_in_valid_ranges(self, model, fleet, rng):
        for spec in fleet[::16]:
            p = model.personality(spec, rng)
            assert 0.25 <= p.os_mem_frac <= 0.92
            assert 0.05 <= p.swap_base_frac <= 0.6
            assert 0 < p.base_disk_used_bytes < spec.disk_bytes
            assert 0.0003 <= p.background_busy <= 0.03

    def test_small_ram_machines_have_higher_os_fraction(self, model, fleet):
        rng = np.random.Generator(np.random.PCG64(2))
        small = [m for m in fleet if m.ram_mb == 128][0]
        large = [m for m in fleet if m.ram_mb == 512][0]
        f_small = np.mean([model.personality(small, rng).os_mem_frac for _ in range(200)])
        f_large = np.mean([model.personality(large, rng).os_mem_frac for _ in range(200)])
        assert f_small > f_large

    def test_disk_usage_near_paper_mean(self, model, fleet):
        rng = np.random.Generator(np.random.PCG64(3))
        used = [
            model.personality(spec, rng).base_disk_used_bytes
            for spec in fleet
            for _ in range(5)
        ]
        assert np.mean(used) / 1e9 == pytest.approx(13.6, abs=1.2)

    def test_interpolated_ram_size(self, model, rng):
        import dataclasses
        spec = dataclasses.replace(build_fleet()[0], ram_mb=384, machine_id=999,
                                   hostname="X-M99", mac="02:00:5E:00:00:99",
                                   disk_serial="X", swap_mb=576)
        p = model.personality(spec, rng)
        assert 0.3 < p.os_mem_frac < 0.8


class TestSessionWorkload:
    def test_normal_session_ranges(self, model, fleet, rng):
        for _ in range(100):
            wl = model.session_workload(fleet[0], rng)
            assert 0.005 <= wl.busy_mean <= 0.60
            assert 0.03 <= wl.apps_mem_frac <= 0.45
            assert 0 <= wl.temp_disk_bytes <= model.temp_quota(fleet[0])
            assert not wl.heavy

    def test_heavy_session_is_busier(self, model, fleet, rng):
        normal = np.mean([model.session_workload(fleet[0], rng).busy_mean
                          for _ in range(200)])
        heavy = np.mean([model.session_workload(fleet[0], rng, heavy=True).busy_mean
                         for _ in range(200)])
        assert heavy > 5 * normal
        assert heavy == pytest.approx(0.5, abs=0.08)

    def test_temp_quota_policy(self, model, fleet):
        small_disk = next(m for m in fleet if m.disk_gb < 20)
        big_disk = next(m for m in fleet if m.disk_gb > 20)
        assert model.temp_quota(small_disk) == 100 * 10**6
        assert model.temp_quota(big_disk) == 300 * 10**6


class TestMemoryLoads:
    def test_session_raises_memory(self, model, fleet, rng):
        spec = fleet[0]
        p = model.personality(spec, rng)
        wl = model.session_workload(spec, rng)
        mem_idle, swap_idle = model.memory_loads(spec, p, None)
        mem_sess, swap_sess = model.memory_loads(spec, p, wl)
        assert mem_sess > mem_idle
        assert swap_sess > swap_idle

    def test_loads_are_percentages(self, model, fleet, rng):
        for spec in fleet[::16]:
            p = model.personality(spec, rng)
            wl = model.session_workload(spec, rng)
            for sess in (None, wl):
                mem, swap = model.memory_loads(spec, p, sess)
                assert 0.0 <= mem <= 100.0
                assert 0.0 <= swap <= 100.0

    def test_overflow_spills_to_swap(self, model, fleet, rng):
        import dataclasses
        from repro.sim.workload import MachinePersonality, SessionWorkload
        spec = next(m for m in fleet if m.ram_mb == 128)
        p = MachinePersonality(os_mem_frac=0.9, swap_base_frac=0.2,
                               base_disk_used_bytes=10**9, background_busy=0.001)
        big = SessionWorkload(busy_mean=0.05, apps_mem_frac=0.4,
                              temp_disk_bytes=0, heavy=False)
        mem, swap = model.memory_loads(spec, p, big)
        assert mem == pytest.approx(95.0)  # capped
        # overflow (0.9+0.4-0.95)=0.35 of RAM lands in a 1.5x pagefile
        assert swap > 100 * (0.2 + 0.07)


class TestNetRates:
    def test_occupied_rates_exceed_idle(self, model):
        rng = np.random.Generator(np.random.PCG64(4))
        idle = np.array([model.net_rates(rng, occupied=False) for _ in range(4000)])
        act = np.array([model.net_rates(rng, occupied=True) for _ in range(4000)])
        assert act[:, 0].mean() > 5 * idle[:, 0].mean()
        assert act[:, 1].mean() > 5 * idle[:, 1].mean()

    def test_lognormal_mean_correction(self, model):
        # the mu-shift must make the empirical mean track the target mean
        rng = np.random.Generator(np.random.PCG64(5))
        params = model.params
        sent = np.mean([model.net_rates(rng, occupied=False)[0] for _ in range(20000)])
        assert sent == pytest.approx(params.idle_net_bps[0], rel=0.1)

    def test_receive_exceeds_send_on_average(self, model):
        rng = np.random.Generator(np.random.PCG64(6))
        rates = np.array([model.net_rates(rng, occupied=True) for _ in range(4000)])
        assert rates[:, 1].mean() > 2 * rates[:, 0].mean()


class TestRedrawBusy:
    def test_redraw_respects_bounds(self, model, fleet, rng):
        wl = model.session_workload(fleet[0], rng)
        for _ in range(200):
            b = model.redraw_busy(wl, rng)
            assert 0.003 <= b <= 0.70

    def test_heavy_redraw_stays_high(self, model, fleet, rng):
        wl = model.session_workload(fleet[0], rng, heavy=True)
        draws = [model.redraw_busy(wl, rng) for _ in range(200)]
        assert np.mean(draws) > 0.3


class TestDrawOrder:
    """The per-event draws are scalar ``Generator`` calls.  They must
    consume the stream exactly as the single array-parameter lognormal
    the trace was first produced with: busy, then sent, then received."""

    @staticmethod
    def _pair(seed):
        return (np.random.Generator(np.random.PCG64(seed)),
                np.random.Generator(np.random.PCG64(seed)))

    @pytest.mark.parametrize("heavy", [True, False])
    def test_occupied_draws_match_one_array_parameter_draw(
        self, model, fleet, heavy
    ):
        p = model.params
        wl = model.session_workload(
            fleet[0], np.random.Generator(np.random.PCG64(8)), heavy=heavy
        )
        lo, hi, sigma = (0.15, 0.95, 0.35) if heavy else (0.003, 0.70, 0.55)
        shift = 0.5 * p.net_sigma ** 2
        mu = np.array([
            np.log(max(wl.busy_mean, 1e-3)),
            np.log(p.active_net_bps[0]) - shift,
            np.log(p.active_net_bps[1]) - shift,
        ])
        a, b = self._pair(9)
        for _ in range(300):
            got = (model.redraw_busy(wl, a), *model.net_rates(a, occupied=True))
            busy, sent, recv = b.lognormal(
                mu, np.array([sigma, p.net_sigma, p.net_sigma])
            ).tolist()
            assert got == (min(max(busy, lo), hi), sent, recv)
            assert all(type(v) is float for v in got)
            assert a.bit_generator.state == b.bit_generator.state

    def test_idle_draws_match_one_array_parameter_draw(self, model):
        p = model.params
        shift = 0.5 * p.net_sigma ** 2
        mu = np.array([
            np.log(p.idle_net_bps[0]) - shift,
            np.log(p.idle_net_bps[1]) - shift,
        ])
        a, b = self._pair(10)
        for _ in range(300):
            got = model.net_rates(a, occupied=False)
            assert got == tuple(b.lognormal(mu, p.net_sigma).tolist())
            assert all(type(v) is float for v in got)
            assert a.bit_generator.state == b.bit_generator.state


class TestSessionBusyMu:
    @pytest.mark.parametrize("busy_mean", [0.0, 1e-4, 1e-3, 0.0123, 0.5, 0.95])
    def test_value(self, busy_mean):
        wl = SessionWorkload(busy_mean=busy_mean, apps_mem_frac=0.1,
                             temp_disk_bytes=0, heavy=False)
        assert wl.busy_mu == float(np.log(max(busy_mean, 1e-3)))
        assert type(wl.busy_mu) is float

    def test_uncached_session_computes_on_first_use(self):
        # Sessions pickled before the value was cached on them (or by an
        # older release) carry no busy_mu and compute it when read.
        wl = SessionWorkload(busy_mean=0.07, apps_mem_frac=0.1,
                             temp_disk_bytes=0, heavy=True)
        restored = pickle.loads(pickle.dumps(wl))
        assert "busy_mu" not in vars(restored)
        assert restored.busy_mu == wl.busy_mu
        assert restored == wl


def test_workload_params_validation():
    with pytest.raises(ValueError):
        WorkloadParams(mem_load_cap=0.0)
    with pytest.raises(ValueError):
        WorkloadParams(disk_base_gb=-1.0)
